package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
	"tdnstream/internal/wal"
)

// errDuplicateStream marks an AddStream name collision — the only
// AddStream failure that is a conflict rather than a bad request.
var errDuplicateStream = errors.New("server: stream already exists")

// Server hosts named tracker streams behind an HTTP API:
//
//	POST   /v1/ingest?stream=NAME    NDJSON or CSV body → bounded queue (429 when full)
//	GET    /v1/topk?stream=NAME      current influential nodes, from the read snapshot
//	GET    /v1/explain?stream=NAME   per-seed contribution breakdown
//	GET    /v1/streams               list hosted streams
//	POST   /v1/streams               create a stream (JSON StreamSpec body)
//	DELETE /v1/streams/{name}        drain and remove a stream
//	POST   /v1/admin/checkpoint?stream=NAME   checkpoint → binary body
//	POST   /v1/admin/restore         checkpoint body → restored stream
//	GET    /healthz                  liveness + per-stream queue state
//	GET    /metrics                  Prometheus text exposition
//
// Construct with New, serve Handler() with any http.Server, and call
// Close to drain every stream before exit.
type Server struct {
	cfg   Config
	start time.Time

	// hub is the push subsystem: every worker publishes its top-k
	// snapshots into it, and GET /v1/streams/{name}/events subscribes
	// out of it (SSE or WebSocket).
	hub *notify.Hub

	mu      sync.RWMutex
	streams map[string]*worker
	// creating reserves stream names whose workers are still being
	// built. Worker construction can replay a long WAL, so it runs
	// outside mu — the reservation keeps concurrent creates of the same
	// name out while every other request proceeds against live streams.
	creating map[string]bool
	closed   bool

	req2xx, req4xx, req5xx atomic.Uint64

	// watchdogStop ends the worker-stall watchdog goroutine; closed
	// exactly once by Close. Nil when the watchdog is disabled.
	watchdogStop chan struct{}
	watchdogOnce sync.Once

	handler http.Handler
}

// New builds a server hosting cfg.Streams and, with a WAL directory,
// every other stream whose log there holds a snapshot — streams created
// over HTTP or by a restore in an earlier run. Each stream recovers its
// pre-crash state from its log before New returns.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.WALDir != "" && !wal.ValidFsyncPolicy(cfg.WALFsync) {
		return nil, fmt.Errorf("server: unknown wal fsync policy %q (want %s, %s or %s)",
			cfg.WALFsync, wal.FsyncAlways, wal.FsyncInterval, wal.FsyncNone)
	}
	// Slow-subscriber evictions are a fan-out implementation detail the
	// notify package reports through this hook; the server turns each
	// into forensics — a flight event plus a Warn with the attrs that
	// distinguish one bad client (deep queue, small lag) from systemic
	// backpressure (every subscriber lagging).
	ncfg := cfg.Notify
	if ncfg.OnEvict == nil {
		ncfg.OnEvict = func(stream string, queueLen, queueCap int, seqLag uint64) {
			cfg.Flight.Record(obs.EventSubscriberEvict, stream, "slow subscriber evicted", "",
				"subscriber_queue", fmt.Sprintf("%d/%d", queueLen, queueCap),
				"seq_lag", fmt.Sprintf("%d", seqLag))
			cfg.logger().Warn("slow subscriber evicted from events feed",
				"stream", stream,
				"subscriber_queue_depth", queueLen,
				"subscriber_queue_capacity", queueCap,
				"seq_lag", seqLag)
		}
	}
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		hub:      notify.NewHub(ncfg),
		streams:  make(map[string]*worker),
		creating: make(map[string]bool),
	}
	s.handler = s.buildMux()
	for _, spec := range cfg.Streams {
		if err := s.AddStream(spec); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.hostLogged(); err != nil {
		s.Close()
		return nil, err
	}
	if cfg.StallCheckInterval > 0 {
		s.watchdogStop = make(chan struct{})
		go s.watchdogLoop()
	}
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.handler }

// AddStream creates and starts a new hosted stream. With a WAL
// directory the stream recovers whatever its log there holds: the
// newest snapshot (whose spec wins over spec, bar the token and wal=
// setting) and the chunks after it.
func (s *Server) AddStream(spec StreamSpec) error {
	return s.addWorker(spec, nil, false)
}

// hostLogged hosts every valid stream directory under WALDir that no
// hosted stream claims and whose log holds a snapshot, under the spec
// the snapshot carries. Directories without one are left alone: there is
// no spec to build them from (a POST /v1/streams naming them replays
// their log from genesis).
func (s *Server) hostLogged() error {
	if s.cfg.WALDir == "" {
		return nil
	}
	entries, err := s.cfg.fs().ReadDir(s.cfg.WALDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !validStreamName(e.Name()) {
			continue
		}
		if _, hosted := s.stream(e.Name()); hosted {
			continue
		}
		err := s.addWorker(StreamSpec{Name: e.Name()}, nil, true)
		if err != nil && !errors.Is(err, errNoSnapshot) {
			return err
		}
	}
	return nil
}

// addWorker reserves spec.Name and builds its worker (see newWorker for
// from and adopt).
func (s *Server) addWorker(spec StreamSpec, from *checkpointEnvelope, adopt bool) error {
	// Reserve the name, then build the worker OUTSIDE the lock: creation
	// replays the stream's write-ahead log, which after a crash can mean
	// tens of seconds of work — holding mu for it would stall every
	// other stream's ingest and reads for the duration. The reservation
	// makes a concurrent create of the same name a clean conflict
	// instead of a double build.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errStreamClosed
	}
	if _, dup := s.streams[spec.Name]; dup || s.creating[spec.Name] {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", errDuplicateStream, spec.Name)
	}
	s.creating[spec.Name] = true
	s.mu.Unlock()

	w, err := newWorker(spec, s.cfg, s.hub, from, adopt)

	s.mu.Lock()
	delete(s.creating, spec.Name)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if s.closed {
		// Close ran while the worker was being built; it could not see
		// this worker, so it is ours to stop.
		s.mu.Unlock()
		w.stop()
		return errStreamClosed
	}
	s.streams[spec.Name] = w
	s.mu.Unlock()
	return nil
}

// RemoveStream drains a stream's queue and stops its worker. The
// stream's write-ahead log is deleted with it: removal ends the
// stream's life, and a namesake created later must not inherit its
// history.
func (s *Server) RemoveStream(name string) error {
	s.mu.Lock()
	w, ok := s.streams[name]
	delete(s.streams, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: unknown stream %q", name)
	}
	w.stop()
	w.destroyWAL()
	return nil
}

// stream looks a worker up by name.
func (s *Server) stream(name string) (*worker, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.streams[name]
	return w, ok
}

// StreamNames returns the hosted stream names, sorted.
func (s *Server) StreamNames() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.streams))
	for name := range s.streams {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Close drains every stream: ingest queues are closed, queued chunks are
// processed to completion, final snapshots are published, workers exit.
// Stop accepting HTTP traffic (http.Server.Shutdown) before calling Close
// so no enqueue races the drain; late enqueues fail cleanly with 503
// rather than being lost silently.
func (s *Server) Close() error {
	if s.watchdogStop != nil {
		s.watchdogOnce.Do(func() { close(s.watchdogStop) })
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	workers := make([]*worker, 0, len(s.streams))
	for _, w := range s.streams {
		workers = append(workers, w)
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.stop()
		}(w)
	}
	wg.Wait()
	return nil
}

// CloseSubscriptions drops every events-feed subscriber on every hosted
// stream, closing their channels so the long-lived SSE/WebSocket
// handlers return. Call it before http.Server.Shutdown: Shutdown waits
// for active handlers, and an events subscription would otherwise hold
// the drain hostage for its full timeout. Stream notify state (sequence
// counters, journals) is untouched, so shutdown checkpoints still record
// the true counters; dropped consumers reconnect after the restart and
// resume from Last-Event-ID.
func (s *Server) CloseSubscriptions() {
	for _, name := range s.StreamNames() {
		s.hub.DropSubscribers(name)
	}
}

// Checkpoint serializes one stream's state (tracker + labels + clock) —
// the body POST /v1/admin/checkpoint answers, which Restore accepts on
// this or any other server. It writes nothing: CheckpointAll is what
// logs snapshots.
func (s *Server) Checkpoint(ctx context.Context, name string) ([]byte, error) {
	w, ok := s.stream(name)
	if !ok {
		return nil, fmt.Errorf("server: unknown stream %q", name)
	}
	var data []byte
	var cerr error
	if err := w.do(ctx, func() { data, _, cerr = w.checkpoint() }); err != nil {
		return nil, err
	}
	return data, cerr
}

// CheckpointAll appends a snapshot of every hosted stream to the
// stream's write-ahead log, syncs it, and truncates the segments the
// snapshot covers, so recovery starts from the snapshot and the log's
// footprint stays near one checkpoint interval of traffic. Streams idle
// since their newest snapshot are skipped. Without a WAL directory there
// is nothing to do. One stream failing (e.g. a tracker without snapshot
// support, or a faulted disk) does not cost the others their
// checkpoint; every failure is reported in the joined error.
func (s *Server) CheckpointAll(ctx context.Context) error {
	var errs []error
	for _, name := range s.StreamNames() {
		w, ok := s.stream(name)
		if !ok || w.wlog == nil {
			continue
		}
		var cerr error
		if err := w.do(ctx, func() { cerr = w.logCheckpoint() }); err != nil {
			cerr = err
		}
		if cerr != nil {
			errs = append(errs, fmt.Errorf("stream %q: %w", name, cerr))
		}
	}
	return errors.Join(errs...)
}

// PeriodicCheckpoints runs CheckpointAll every interval until ctx is
// canceled — the background loop behind influtrackd's
// -checkpoint-interval, bounding both the log's footprint and the replay
// a restart pays. It blocks (callers run it in a goroutine); errors are
// reported to onErr (may be nil) and the loop keeps going. Checkpoints
// run on the per-stream worker goroutines, so they serialize with ingest
// exactly like admin checkpoints.
func (s *Server) PeriodicCheckpoints(ctx context.Context, every time.Duration, onErr func(error)) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			err := s.CheckpointAll(ctx)
			// A tick caught mid-flight by cancellation fails with the
			// context's error — that is shutdown, not a checkpoint problem,
			// and reporting it would log a spurious failure on every
			// SIGTERM that races a tick.
			if err != nil && ctx.Err() == nil && onErr != nil {
				onErr(err)
			}
		}
	}
}

// Restore applies a checkpoint: into the named stream if it is hosted,
// otherwise by creating the stream from the spec embedded in the
// checkpoint. Returns the stream name. With a write-ahead log the
// restore is itself logged, as a snapshot frame covering everything
// before it, so crash recovery starts from the restored state and
// replays only what was ingested after it.
func (s *Server) Restore(ctx context.Context, data []byte) (string, error) {
	env, err := decodeCheckpoint(data)
	if err != nil {
		return "", err
	}
	if w, ok := s.stream(env.Spec.Name); ok {
		var rerr error
		if err := w.do(ctx, func() { rerr = w.restore(env) }); err != nil {
			return "", err
		}
		return env.Spec.Name, rerr
	}
	return env.Spec.Name, s.addWorker(env.Spec, env, false)
}
