package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdnstream"
	"tdnstream/internal/audit"
	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
	"tdnstream/internal/wal"
)

var (
	errQueueFull    = errors.New("server: ingest queue full")
	errStreamClosed = errors.New("server: stream closed")
	errStaleIngest  = errors.New("server: stream state replaced during ingest")
	// errWAL marks a write-ahead-log failure on the ingest path — a
	// server-side durability fault (500), never the client's input.
	errWAL = errors.New("server: write-ahead log failure")
)

// chunk is the unit of work on a stream's ingest queue: up to
// Config.MaxChunk decoded records. epoch pins the label dictionary the
// records were interned under — enqueue refuses chunks from a superseded
// epoch so a checkpoint restore can never be fed NodeIDs minted against
// the pre-restore dictionary.
type chunk struct {
	rows  []tdnstream.Interaction
	epoch uint64
	// walPos, when nonzero, is the WAL position after this chunk's
	// record. The worker advances its applied watermark to it when the
	// chunk is processed, so a checkpoint knows exactly how much of the
	// log its state already covers.
	walPos wal.Pos
	// trace, when non-nil, is the originating request's stage trace:
	// the worker attributes queue wait and tracker time to it and
	// releases the chunk's reference once processed. enqueuedNs is the
	// wall-clock instant the chunk entered the queue.
	trace      *obs.Trace
	enqueuedNs int64
}

// rawRecord is one decoded-but-not-yet-interned ingest record. The
// ingest path batches raw records and interns a whole chunk at once
// under the read side of closeMu (internAndEnqueue), so label interning
// is atomic with the epoch check: a request whose state was replaced by
// a restore is refused before it can mint a single NodeID in the new
// dictionary.
type rawRecord struct {
	src, dst string
	t        int64
}

// workerState bundles everything a checkpoint restore swaps — the
// pipeline, its tracker, and the stream spec that built them (a restored
// checkpoint carries its own spec, which may differ from the spec the
// stream was created with). One atomic store keeps readers consistent:
// only the worker goroutine writes it; handlers load it for the spec,
// time mode and oracle-call counter.
type workerState struct {
	spec     StreamSpec
	timeMode string
	pipe     *tdnstream.Pipeline
	tracker  tdnstream.Tracker
}

// worker owns one hosted stream: a bounded ingest queue drained by a
// single goroutine that drives the tracker pipeline and publishes read
// snapshots. One goroutine per stream is the sharding model — streams
// never contend with each other, and within a stream the tracker runs
// strictly single-threaded (trackers are not concurrency-safe).
type worker struct {
	name string
	cfg  Config

	// hub receives the stream's top-k snapshots on every publish; it
	// diffs, journals and fans the change events out to SSE/WebSocket
	// subscribers. token, when non-empty, is the stream's ingest/admin/
	// events bearer token — it lives on the worker, not in the swapped
	// state, so a checkpoint restore (whose envelope is token-redacted)
	// can never silently strip a stream's auth.
	hub   *notify.Hub
	token string

	labels *labelTable
	queue  chan chunk
	admin  chan func()
	done   chan struct{}

	// closeMu guards closing and epoch. epoch counts state replacements
	// (checkpoint restores): ingest captures it before interning labels and
	// enqueue rejects chunks whose epoch is stale, so records interned
	// under a replaced label dictionary never reach the tracker.
	closeMu sync.RWMutex
	closing bool
	epoch   uint64

	state atomic.Pointer[workerState]
	snap  atomic.Pointer[Snapshot]
	m     streamMetrics

	// rec aggregates the stream's stage telemetry: per-stage latency
	// histograms, the ring of recent request traces, slow-request
	// accounting. Nil when Config.DisableTracing — every call site is
	// nil-safe, so disabling costs nothing.
	rec *obs.Recorder

	lastErr atomic.Pointer[string]

	// degraded flips on when the stream's write-ahead log faults on the
	// ingest path (append or commit failure): ingest answers 503 +
	// Retry-After while reads keep serving the last good snapshot, and a
	// single background repair loop (armed by the flip's CAS) retries
	// wal.Repair with exponential backoff until the log takes appends
	// again. degradedAt is the clock reading at the flip, for /healthz.
	degraded   atomic.Bool
	degradedAt atomic.Int64

	// wlog is the stream's write-ahead log (nil when the server has no
	// WAL directory): its snapshot frames always, and its ingest chunks
	// too when logChunks is set (the stream's wal= is not off). Both are
	// assigned once in newWorker, before any goroutine can observe the
	// worker. walMu serializes the append+enqueue pair so WAL order and
	// queue order are identical — replay must feed chunks in exactly the
	// order the live worker consumed them (arrival-mode step numbering
	// and event-mode stale-drops both depend on it). walDictLen (under
	// walMu) is the label-dictionary prefix already recorded in the log;
	// each record carries the delta since.
	wlog       *wal.Log
	logChunks  bool
	walMu      sync.Mutex
	walDictLen int
	walScratch []byte

	// walAppliedSeg/Off mirror walApplied for readers off the worker
	// goroutine (/v1/streams info and the /metrics wal_applied gauges).
	walAppliedSeg atomic.Uint64
	walAppliedOff atomic.Int64

	// engineStats caches the tracker's introspection report. Only the
	// worker goroutine refreshes it (on publish, unless
	// Config.DisableEngineStats); /metrics and the memory-watermark log
	// read the cache, so scrapes never touch the tracker.
	engineStats atomic.Pointer[tdnstream.EngineStats]

	// auditRep caches the latest quality-audit report for the
	// influtrackd_quality_* gauges; only the worker goroutine stores it
	// (after each audit), so scrapes never touch the tracker. The
	// auditor itself is worker-goroutine-private (see below).
	auditRep atomic.Pointer[audit.Report]

	// lastBatchNs is the wall-clock instant the worker last finished a
	// chunk; the stall watchdog compares it against the EWMA batch
	// latency for streams whose queue is non-empty. stalled latches a
	// flagged stall so the watchdog records one event per episode, not
	// one per sweep; finishing a chunk clears it.
	lastBatchNs atomic.Int64
	stalled     atomic.Bool

	// inFlight is set while the worker is applying a dequeued chunk.
	// queue_depth reports len(queue) plus this flag: a popped chunk's
	// records are not yet in the accounting counters, so without it a
	// poller waiting for the queue to drain (loadgen's verify ledger)
	// could read "empty" while the final chunk is still mid-step and
	// conclude its acked records were lost.
	inFlight atomic.Bool

	// Worker-goroutine-private state.
	lastT      int64   // high-water tracker time (event) / step clock (arrival)
	sinceSnap  int     // chunks since the last snapshot publish
	walApplied wal.Pos // log position covered by the tracker state
	replaying  bool    // WAL replay in progress: suppress per-chunk publishes
	// snapped marks the newest snapshot in the log (nil before the
	// first). A checkpoint that finds the stream's mark unchanged skips
	// its snapshot: the stream is idle, and a snapshot per tick would
	// grow the log without ever moving the truncation point.
	snapped *snapMark
	// aboveWatermark/watermarkLogNs drive the memory-watermark slog:
	// warn on the upward crossing, re-warn periodically while above,
	// note the recovery on the way back down.
	aboveWatermark bool
	watermarkLogNs int64
	// statsRefreshNs throttles the engine-introspection walk while the
	// queue is backlogged (idle-queue publishes always refresh).
	statsRefreshNs int64
	// auditor runs the online quality audits (nil when
	// Config.DisableAudit, or after the tracker proved unsupported).
	// Audits piggyback on snapshot publishes — Due is checked after the
	// publish work, suppressed while the stream replays its WAL or is
	// degraded — so they never preempt a drain, and an idle stream
	// (whose graph cannot change) simply keeps its last report.
	auditor *audit.Auditor
}

// buildState constructs a stream's swap-in state from its spec. When
// trackerBlob is non-nil the tracker is restored from it instead of
// built empty. Construction doubles as spec validation — the spec's
// constructors are the single source of truth for what is admissible.
func buildState(spec StreamSpec, trackerBlob []byte) (*workerState, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	assign, err := spec.Lifetime.New()
	if err != nil {
		return nil, fmt.Errorf("server: stream %q: %w", spec.Name, err)
	}
	var tracker tdnstream.Tracker
	if trackerBlob != nil {
		tracker, err = tdnstream.LoadTracker(bytes.NewReader(trackerBlob))
		if err != nil {
			return nil, fmt.Errorf("server: stream %q: restore: %w", spec.Name, err)
		}
	} else {
		tracker, err = spec.Tracker.New()
		if err != nil {
			return nil, fmt.Errorf("server: stream %q: %w", spec.Name, err)
		}
	}
	return &workerState{
		spec:     spec,
		timeMode: spec.timeMode(),
		pipe:     tdnstream.NewPipeline(tracker, assign),
		tracker:  tracker,
	}, nil
}

// errNoSnapshot refuses to host a discovered stream directory whose log
// holds no snapshot: without one there is no spec to build it from.
var errNoSnapshot = errors.New("server: stream log holds no snapshot")

// newWorker builds a stream worker and recovers its state. With a
// write-ahead log the state is rebuilt from the log — its newest
// snapshot, then the chunks that snapshot does not cover — before the
// worker goroutine exists and before the server routes a single request
// at the stream, so the published state is exactly the pre-crash state.
// A log without a snapshot replays from genesis under spec.
//
// from, when non-nil, is a restore that creates the stream: the state
// comes from it instead, and it is logged as the stream's newest
// snapshot. adopt hosts the stream only if its log holds a snapshot, and
// takes that snapshot's spec whole (boot discovery of streams that no
// configured spec names); otherwise the hosting spec keeps its token
// and wal= setting, which envelopes do not carry for it.
func newWorker(spec StreamSpec, cfg Config, hub *notify.Hub, from *checkpointEnvelope, adopt bool) (_ *worker, err error) {
	w := &worker{
		name:   spec.Name,
		cfg:    cfg,
		hub:    hub,
		labels: newLabelTable(),
		queue:  make(chan chunk, cfg.QueueDepth),
		admin:  make(chan func()),
		done:   make(chan struct{}),
	}
	if cfg.WALDir != "" {
		w.wlog, err = wal.Open(filepath.Join(cfg.WALDir, spec.Name), wal.Options{
			Fsync:        cfg.WALFsync,
			FsyncEvery:   cfg.WALFsyncInterval,
			SegmentBytes: cfg.WALSegmentBytes,
			FS:           cfg.fs(),
		})
		if err != nil {
			return nil, fmt.Errorf("server: stream %q: %w", spec.Name, err)
		}
		defer func() {
			if err != nil {
				w.wlog.Close()
			}
		}()
	}
	env, covers := from, wal.Pos{}
	if env == nil && w.wlog != nil {
		if env, covers, err = w.newestSnapshot(); err != nil {
			return nil, err
		}
	}
	var blob []byte
	switch {
	case env == nil && adopt:
		return nil, errNoSnapshot
	case env == nil && w.wlog != nil && !w.wlog.Start().IsZero():
		// The log's early history was truncated away, yet no snapshot
		// covers it: a replay from here would silently build a partial
		// state. Refuse loudly — the operator removes the stream's wal
		// directory to start it empty.
		return nil, fmt.Errorf("server: stream %q: wal begins at %v but holds no snapshot covering the truncated history (remove the stream's wal directory to start it empty)", w.name, w.wlog.Start())
	case env != nil:
		host := spec
		spec = env.Spec
		spec.Name = w.name
		if !adopt {
			spec.Token, spec.WAL = host.Token, host.WAL
		}
		blob = env.Tracker
	}
	st, err := buildState(spec, blob)
	if err != nil {
		return nil, err
	}
	w.token = spec.Token
	w.logChunks = w.wlog != nil && cfg.walFor(spec)
	if !cfg.DisableTracing {
		w.rec = obs.NewRecorder(spec.Name, obs.Config{
			RingSize:      cfg.TraceRing,
			SlowThreshold: cfg.SlowTrace,
			Logger:        cfg.logger(),
		})
	}
	if !cfg.DisableAudit {
		w.auditor = audit.New(audit.Config{
			Interval: cfg.AuditInterval,
			Every:    cfg.AuditEvery,
			Budget:   cfg.AuditBudget,
			Floor:    cfg.AuditFloor,
			K:        spec.Tracker.K,
			Clock:    cfg.clock(),
		})
	}
	if env != nil {
		w.labels.reset(env.Names)
		w.lastT, _ = tdnstream.TrackerNow(st.tracker)
		// Counter continuity: resume the stream-logical counters where
		// the snapshot froze them (replay re-counts every chunk past its
		// covered position on top), so a restarted daemon reports the
		// same processed/steps totals an uninterrupted run would.
		w.m.seed(env.Counters)
		w.snapped = env.mark()
		// Resume the event sequence past everything a previous
		// incarnation already handed to subscribers, and resync them
		// with a keyframe: the restored state replaces, not continues,
		// whatever they were following.
		if w.hub != nil {
			w.hub.Resume(w.name, env.NotifySeq)
		}
	}
	w.state.Store(st)
	switch {
	case w.wlog == nil:
	case from != nil:
		end, tok, err := w.appendRestore(from)
		if err != nil {
			return nil, err
		}
		w.setWALApplied(end)
		if err := w.wlog.Commit(tok); err != nil {
			return nil, fmt.Errorf("server: stream %q: restore snapshot: %w", w.name, err)
		}
	default:
		if err := w.replayWAL(covers); err != nil {
			return nil, err
		}
	}
	w.lastBatchNs.Store(time.Now().UnixNano())
	w.publish()
	go w.run()
	return w, nil
}

// setWALApplied advances the applied watermark together with its atomic
// mirrors. Every assignment must go through here so off-goroutine
// readers see the same position snapshots will record.
func (w *worker) setWALApplied(pos wal.Pos) {
	w.walApplied = pos
	w.walAppliedSeg.Store(pos.Seg)
	w.walAppliedOff.Store(pos.Off)
}

// newestSnapshot scans the stream's log once for its newest snapshot
// frame and returns the envelope it carries and the position it covers
// (a nil envelope when the log holds none).
func (w *worker) newestSnapshot() (*checkpointEnvelope, wal.Pos, error) {
	var last []byte
	err := w.wlog.ReadFrom(w.wlog.Start(), func(p []byte, _ wal.Pos) error {
		if kind, _ := wal.PayloadKind(p); kind == wal.KindSnapshot {
			last = append(last[:0], p...)
		}
		return nil
	})
	if err != nil || last == nil {
		return nil, wal.Pos{}, err
	}
	covers, body, err := wal.DecodeSnapshot(last)
	if err != nil {
		return nil, wal.Pos{}, fmt.Errorf("server: stream %q: %w", w.name, err)
	}
	env, err := decodeCheckpoint(body)
	if err != nil {
		return nil, wal.Pos{}, fmt.Errorf("server: stream %q: snapshot: %w", w.name, err)
	}
	return env, covers, nil
}

// replayWAL feeds every chunk from start on through the normal chunk
// path: apply the record's label-dictionary delta, then process its
// rows exactly as the live worker did — same chunk boundaries, same
// ordering — so the rebuilt tracker state is identical to the state
// that acknowledged those records. Replayed records count as ingested
// (they were, by a previous incarnation), keeping the
// processed+stale_dropped+failed+superseded == ingested identity exact
// across a crash.
//
// Snapshot frames are skipped: the state already comes from the newest
// one. Checkpoints and restores both append from the worker goroutine
// and a restore moves the applied watermark past its own frame, so no
// restore other than the newest snapshot itself lies past start; older
// checkpoint frames there only describe states the replay passes
// through anyway.
func (w *worker) replayWAL(start wal.Pos) error {
	// The state covers the log through start even when the tail turns
	// out to be empty; the next snapshot must not cover less.
	w.setWALApplied(start)
	w.replaying = true
	defer func() { w.replaying = false }()
	err := w.wlog.ReadFrom(start, func(payload []byte, end wal.Pos) error {
		kind, err := wal.PayloadKind(payload)
		if err != nil || kind == wal.KindSnapshot {
			return err
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return err
		}
		if err := w.labels.apply(rec.DictBase, rec.Labels); err != nil {
			return err
		}
		w.m.ingested.Add(uint64(len(rec.Rows)))
		w.m.walReplayed.Add(uint64(len(rec.Rows)))
		w.process(chunk{rows: rec.Rows, walPos: end})
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: stream %q: wal replay: %w", w.name, err)
	}
	w.walDictLen = w.labels.len()
	w.cfg.Flight.Record(obs.EventReplayDone, w.name, "wal tail replayed", "",
		"replayed_records", fmt.Sprintf("%d", w.m.walReplayed.Load()),
		"applied_seg", fmt.Sprintf("%d", w.walApplied.Seg),
		"applied_off", fmt.Sprintf("%d", w.walApplied.Off))
	return nil
}

// appendRestore logs a restore: env, token-redacted, as a snapshot frame
// covering everything before it — the restored state replaces that
// history — and rebases the chunk dictionary delta onto env's labels,
// all under walMu so chunk appends order cleanly around the frame. It
// returns the position after the frame, which the restored state
// covers. Callers own the stream's ingest: restore holds closeMu for
// writing, newWorker runs before the worker is visible.
func (w *worker) appendRestore(env *checkpointEnvelope) (wal.Pos, wal.Token, error) {
	m := *env
	m.Spec.Token = ""
	data, err := encodeCheckpoint(&m)
	if err != nil {
		return wal.Pos{}, 0, err
	}
	w.walMu.Lock()
	defer w.walMu.Unlock()
	end, tok, err := w.wlog.Append(wal.AppendEncodeSnapshot(nil, w.wlog.End(), data))
	if err != nil {
		return wal.Pos{}, 0, fmt.Errorf("server: stream %q: restore snapshot: %w", w.name, err)
	}
	w.walDictLen = len(env.Names)
	return end, tok, nil
}

// run drains the ingest queue until the queue is closed and empty, then
// publishes a final snapshot and exits — that is the graceful-drain path.
// Admin operations (checkpoint, restore, explain) run on this goroutine
// between chunks so they never race the tracker.
func (w *worker) run() {
	defer close(w.done)
	// A panicking worker takes its stream down; record the forensics
	// first (flight event, then the daemon's postmortem hook) and
	// re-panic so the failure stays loud.
	defer func() {
		if v := recover(); v != nil {
			w.cfg.Flight.Record(obs.EventPanic, w.name, "worker goroutine panic",
				fmt.Sprintf("%v", v))
			if w.cfg.OnPanic != nil {
				w.cfg.OnPanic(v)
			}
			panic(v)
		}
	}()
	for {
		select {
		case fn := <-w.admin:
			fn()
		case c, ok := <-w.queue:
			if !ok {
				w.publish()
				return
			}
			w.process(c)
		}
	}
}

// queueDepth is the number of chunks not yet reflected in the stream's
// accounting counters: those waiting in the queue plus the one the
// worker is currently applying.
func (w *worker) queueDepth() int {
	n := len(w.queue)
	if w.inFlight.Load() {
		n++
	}
	return n
}

// ingestEpoch reads the current state epoch. Ingest captures it before
// decoding (and interning) any records; enqueue re-checks it under the
// same lock a restore bumps it under.
func (w *worker) ingestEpoch() uint64 {
	w.closeMu.RLock()
	defer w.closeMu.RUnlock()
	return w.epoch
}

// enqueue offers a chunk to the queue without blocking: a full queue is
// reported to the caller as backpressure rather than absorbed as latency.
// A chunk interned under a superseded epoch (the stream was restored
// since ingest began) is refused with errStaleIngest instead of being
// admitted with NodeIDs the new label dictionary never assigned.
// Durability is not awaited here — the HTTP ingest path does that
// (internAndEnqueue); this entry point serves tests and embedders that
// bypass interning.
func (w *worker) enqueue(c chunk) error {
	w.closeMu.RLock()
	defer w.closeMu.RUnlock()
	_, err := w.enqueueLocked(c)
	return err
}

// enqueueLocked validates and sends one chunk; callers hold closeMu
// (either side). The returned token is nonzero when the chunk was
// appended to the WAL and the caller must await wlog.Commit before
// acknowledging.
func (w *worker) enqueueLocked(c chunk) (wal.Token, error) {
	if w.closing {
		return 0, errStreamClosed
	}
	if c.epoch != w.epoch {
		w.m.restoreReject.Add(uint64(len(c.rows)))
		return 0, errStaleIngest
	}
	return w.sendLocked(c)
}

// sendLocked appends the chunk to the write-ahead log (when the stream
// has one) and places it on the queue, both under walMu so the log and
// the queue agree on order — the invariant replay depends on. Queue
// capacity is checked first: a backpressured chunk is refused before it
// can cost a log write, and once the append lands the channel send
// cannot block (every sender holds walMu, receivers only drain).
// Callers hold closeMu, which excludes the restore path's snapshot append
// + state swap and the stop path's queue close.
func (w *worker) sendLocked(c chunk) (wal.Token, error) {
	w.walMu.Lock()
	defer w.walMu.Unlock()
	if len(w.queue) == cap(w.queue) {
		w.m.rejected.Add(uint64(len(c.rows)))
		return 0, errQueueFull
	}
	var tok wal.Token
	if w.logChunks {
		labels, total := w.labels.delta(w.walDictLen)
		rec := wal.Record{DictBase: w.walDictLen, Labels: labels, Rows: c.rows}
		w.walScratch = rec.AppendEncode(w.walScratch[:0])
		appendStart := time.Now()
		pos, t, err := w.wlog.Append(w.walScratch)
		appendD := time.Since(appendStart)
		w.rec.Observe(obs.StageWALAppend, appendD)
		c.trace.Add(obs.StageWALAppend, appendD)
		if err != nil {
			w.degrade(err)
			return 0, fmt.Errorf("%w: %v", errWAL, err)
		}
		w.walDictLen = total
		w.m.walAppended.Add(uint64(len(c.rows)))
		c.walPos = pos
		tok = t
	}
	c.enqueuedNs = time.Now().UnixNano()
	w.queue <- c
	w.m.ingested.Add(uint64(len(c.rows)))
	return tok, nil
}

// internAndEnqueue interns one chunk's labels and offers it to the
// queue, all under one closeMu read-lock, so interning is atomic with
// the epoch check: a restore (which swaps the dictionary, state and
// epoch under the write lock) either happens entirely before — and the
// stale epoch is refused here before any label is interned — or entirely
// after, in which case the labels this chunk interned are part of the
// dictionary being replaced anyway. No request can intern labels into a
// dictionary it was not admitted against.
//
// The returned token is the chunk's WAL append (zero when the stream
// has no log): the caller must pass its last token to commitWAL before
// acknowledging — durability is deliberately not awaited here, so a
// multi-chunk request pays one group commit, not one per chunk.
func (w *worker) internAndEnqueue(raws []rawRecord, epoch uint64, tr *obs.Trace) (wal.Token, error) {
	if len(raws) == 0 {
		return 0, nil
	}
	w.closeMu.RLock()
	if w.closing {
		w.closeMu.RUnlock()
		return 0, errStreamClosed
	}
	if epoch != w.epoch {
		w.m.restoreReject.Add(uint64(len(raws)))
		w.closeMu.RUnlock()
		return 0, errStaleIngest
	}
	internStart := time.Now()
	rows := make([]tdnstream.Interaction, len(raws))
	for i, r := range raws {
		rows[i] = tdnstream.Interaction{
			Src: w.labels.intern(r.src),
			Dst: w.labels.intern(r.dst),
			T:   r.t,
		}
	}
	internD := time.Since(internStart)
	w.rec.Observe(obs.StageIntern, internD)
	tr.Add(obs.StageIntern, internD)
	// The chunk reference must exist before the chunk is visible to the
	// worker — otherwise the worker could release the trace's last
	// reference before the handler is done with it.
	tr.Retain()
	tok, err := w.enqueueLocked(chunk{rows: rows, epoch: epoch, trace: tr})
	if err != nil {
		tr.Unretain()
	}
	w.closeMu.RUnlock()
	return tok, err
}

// commitWAL blocks until every WAL append up to tok is as durable as
// the fsync policy promises — the gate between "queued" and "200 OK".
// Callers hold no locks here, so concurrent requests pile into a single
// group-commit fsync; and because Commit(t) covers every append ≤ t, a
// multi-chunk request commits once with its last token instead of
// fsyncing per chunk. tok zero (no WAL, or nothing appended) is a
// no-op.
func (w *worker) commitWAL(tok wal.Token, tr *obs.Trace) error {
	if tok == 0 || w.wlog == nil {
		return nil
	}
	commitStart := time.Now()
	err := w.wlog.Commit(tok)
	commitD := time.Since(commitStart)
	w.m.walCommitLat.Observe(commitD)
	w.rec.Observe(obs.StageWALCommit, commitD)
	tr.Add(obs.StageWALCommit, commitD)
	if err != nil {
		// The chunks are queued (their effect will be visible) but
		// their durability is unproven — the one ack-ambiguous outcome.
		// The handler answers 500 and the client's retry is
		// at-least-once, exactly like any acked-but-unanswered request.
		if errors.Is(err, wal.ErrFenced) {
			// Repair already rotated past the fault; only this token's
			// durability is unprovable. Report without re-degrading — the
			// log takes new appends, and flipping degraded again would
			// flap the stream for a fault that is already healed.
			msg := err.Error()
			w.lastErr.Store(&msg)
			w.cfg.Flight.Record(obs.EventWALFenced, w.name,
				"ack-ambiguous commit token fenced by repair", msg)
		} else {
			w.degrade(err)
		}
		return fmt.Errorf("%w: %v", errWAL, err)
	}
	return nil
}

// stop closes the queue and waits for the worker to drain it, then
// detaches the stream from the notify hub: the final drain snapshot is
// published (and fanned out) first, after which every subscriber's
// channel is closed so events handlers unblock and end their responses.
func (w *worker) stop() {
	w.closeMu.Lock()
	if !w.closing {
		w.closing = true
		close(w.queue)
	}
	w.closeMu.Unlock()
	<-w.done
	// The drain is complete: every appended record has been processed,
	// so the log can close (with a final flush-to-disk) knowing its
	// tail and the final state agree.
	if w.wlog != nil {
		if err := w.wlog.Close(); err != nil {
			msg := err.Error()
			w.lastErr.Store(&msg)
		}
	}
	if w.hub != nil {
		w.hub.RemoveStream(w.name)
	}
}

// do runs fn on the worker goroutine and waits for it, so fn may touch the
// tracker. It fails instead of blocking forever when the stream is closed.
func (w *worker) do(ctx context.Context, fn func()) error {
	reply := make(chan struct{})
	wrapped := func() { defer close(reply); fn() }
	select {
	case w.admin <- wrapped:
	case <-w.done:
		return errStreamClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-reply:
		return nil
	case <-w.done:
		return errStreamClosed
	}
}

// process feeds one chunk to the tracker according to the stream's time
// mode and refreshes the read snapshot.
func (w *worker) process(c chunk) {
	w.inFlight.Store(true)
	defer w.inFlight.Store(false)
	start := time.Now()
	if c.enqueuedNs != 0 {
		w.rec.Observe(obs.StageQueueWait, start.Sub(time.Unix(0, c.enqueuedNs)))
		c.trace.QueueWait(c.enqueuedNs, start.UnixNano())
	}
	st := w.state.Load()
	rows := c.rows
	fed, steps := 0, 0
	switch st.timeMode {
	case TimeArrival:
		if len(rows) > 0 {
			t := w.lastT + 1
			for i := range rows {
				rows[i].T = t
			}
			if w.observe(st, t, rows) {
				w.lastT = t
				fed += len(rows)
				steps++
			} else {
				w.m.failed.Add(uint64(len(rows)))
			}
		}
	default: // TimeEvent
		if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].T < rows[j].T }) {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].T < rows[j].T })
		}
		for i := 0; i < len(rows); {
			j := i
			t := rows[i].T
			for j < len(rows) && rows[j].T == t {
				j++
			}
			if t <= w.lastT {
				w.m.staleDrop.Add(uint64(j - i))
				i = j
				continue
			}
			if w.observe(st, t, rows[i:j]) {
				w.lastT = t
				fed += j - i
				steps++
			} else {
				w.m.failed.Add(uint64(j - i))
			}
			i = j
		}
	}
	stepD := time.Since(start)
	w.m.observeChunk(fed, steps, stepD)
	if w.auditor != nil {
		w.auditor.NoteRecords(fed)
	}
	if !w.replaying {
		w.rec.Observe(obs.StageTrackerStep, stepD)
	}
	c.trace.Add(obs.StageTrackerStep, stepD)
	if c.walPos != (wal.Pos{}) {
		// The tracker state now covers the log through this chunk;
		// checkpoints record this watermark. (Stale-dropped and failed
		// records are covered too — re-feeding them would drop or fail
		// them again.)
		w.setWALApplied(c.walPos)
	}
	w.sinceSnap++
	// During WAL replay the per-chunk publish is suppressed: nobody can
	// subscribe before newWorker returns, and diffing thousands of
	// historical intermediate solutions would only burn the journal.
	// newWorker publishes once, after recovery.
	if !w.replaying && w.sinceSnap >= w.cfg.SnapshotEvery {
		w.publishFor(c.trace)
	}
	// The chunk's work — publish included — is complete: release the
	// trace's chunk reference and mark the completion instant so the
	// next chunk's queue wait starts from here.
	done := time.Now()
	w.lastBatchNs.Store(done.UnixNano())
	w.stalled.Store(false)
	c.trace.Done(done.UnixNano())
}

// observe runs one pipeline step, recording rather than propagating
// failures (a poisoned batch must not wedge the stream).
func (w *worker) observe(st *workerState, t int64, batch []tdnstream.Interaction) bool {
	if err := st.pipe.ObserveBatch(t, batch); err != nil {
		msg := err.Error()
		w.lastErr.Store(&msg)
		return false
	}
	return true
}

// publish refreshes the atomically-swapped read snapshot from the
// tracker's current answer, routing the new solution through the notify
// hub first so the snapshot carries the sequence number of its own
// change events — one pointer swap keeps solution and seq consistent
// for readers. The hub call takes only the stream's own fan-out lock
// and never blocks on subscribers (slow ones are dropped), so the
// publish path stays wait-free with respect to consumers.
func (w *worker) publish() { w.publishFor(nil) }

// publishFor is publish with stage attribution: solution extraction
// plus the snapshot swap count as snapshot_publish, the notify hub's
// diff + journal + fan-out as notify_fanout.
func (w *worker) publishFor(tr *obs.Trace) {
	pubStart := time.Now()
	st := w.state.Load()
	sol := st.tracker.Solution()
	var seq uint64
	var notifyD time.Duration
	if w.hub != nil {
		notifyStart := time.Now()
		seq = w.hub.Publish(w.name, w.topkOf(st, sol))
		notifyD = time.Since(notifyStart)
	}
	w.snap.Store(&Snapshot{
		Stream:      w.name,
		Algo:        st.tracker.Name(),
		T:           w.lastT,
		Steps:       w.m.steps.Load(),
		Processed:   w.m.processed.Load(),
		OracleCalls: st.tracker.Calls().Value(),
		Seq:         seq,
		Solution:    sol,
	})
	pubD := time.Since(pubStart) - notifyD
	if !w.replaying {
		w.rec.Observe(obs.StagePublish, pubD)
		w.rec.Observe(obs.StageNotify, notifyD)
	}
	tr.Add(obs.StagePublish, pubD)
	tr.Add(obs.StageNotify, notifyD)
	if !w.cfg.DisableEngineStats {
		// The walk costs O(structures), so a publish-per-chunk backlog
		// must not pay it every time: refresh when the queue is idle
		// (the worker has nothing better to do, and quiescent gauges
		// are the ones operators read) and otherwise at most once per
		// second, so a deep drain still updates the footprint while it
		// mutates the structures the walk measures.
		now := time.Now().UnixNano()
		if len(w.queue) == 0 || now-w.statsRefreshNs >= int64(time.Second) {
			w.refreshEngineStats(st)
			w.statsRefreshNs = now
		}
	}
	// Quality audits piggyback here for the same reason the stats walk
	// does: the worker owns the tracker, and the publish cadence keeps
	// the oracle work off the per-chunk hot path. Replay and degraded
	// streams are exempt — a replaying tracker is mid-history, and a
	// degraded stream's operator already has a louder signal.
	if w.auditor != nil && !w.replaying && !w.degraded.Load() && w.auditor.Due() {
		w.runAudit(st)
	}
	w.sinceSnap = 0
}

// runAudit performs one quality audit on the worker goroutine, caches
// the report for the /metrics gauges, and drives the floor alerting. A
// tracker without a live-graph hook disables auditing for the stream
// (logged once) rather than erroring every publish.
func (w *worker) runAudit(st *workerState) {
	rep, action, err := w.auditor.Run(st.tracker)
	if err != nil {
		w.cfg.logger().Warn("quality auditing unsupported; disabled for stream",
			"stream", w.name, "err", err)
		w.auditor = nil
		return
	}
	w.auditRep.Store(rep)
	w.noteFloor(rep, action)
}

// noteFloor turns a floor transition into its slog line and notify
// event, mirroring the memory-watermark semantics: Warn on the downward
// crossing and once a minute while below, Info on recovery. Every
// transition also publishes a "quality" event so subscribed dashboards
// see the regression in order with the change events around it.
func (w *worker) noteFloor(rep *audit.Report, action audit.FloorAction) {
	floor := w.cfg.AuditFloor
	switch action {
	case audit.FloorWarn, audit.FloorReWarn:
		w.cfg.Flight.Record(obs.EventAuditFloor, w.name, "quality ratio under audit floor", "",
			"quality_ratio", fmt.Sprintf("%.4f", rep.QualityRatio),
			"floor", fmt.Sprintf("%.4f", floor))
		w.cfg.logger().Warn("stream quality under audit floor",
			"stream", w.name,
			"quality_ratio", rep.QualityRatio,
			"floor", floor,
			"served_value", rep.ServedValue,
			"reference_value", rep.ReferenceValue,
			"budget_exhausted", rep.BudgetExhausted)
	case audit.FloorRecover:
		w.cfg.Flight.Record(obs.EventAuditRecover, w.name, "quality ratio recovered above audit floor", "",
			"quality_ratio", fmt.Sprintf("%.4f", rep.QualityRatio),
			"floor", fmt.Sprintf("%.4f", floor))
		w.cfg.logger().Info("stream quality recovered above audit floor",
			"stream", w.name,
			"quality_ratio", rep.QualityRatio,
			"floor", floor)
	default:
		return
	}
	if w.hub != nil {
		detail := fmt.Sprintf("audit #%d: quality_ratio %.3f vs floor %.3f (served %d, reference %d)",
			rep.Seq, rep.QualityRatio, floor, rep.ServedValue, rep.ReferenceValue)
		w.hub.PublishQuality(w.name, action.String(), detail, rep.QualityRatio, floor)
	}
}

// refreshEngineStats re-walks the tracker's structures into the cached
// introspection snapshot and drives the memory-watermark log. Runs on
// the worker goroutine (it touches the tracker); piggybacking on publish
// keeps the walk off the per-chunk hot path.
func (w *worker) refreshEngineStats(st *workerState) {
	es, ok := tdnstream.EngineStatsOf(st.tracker)
	if !ok {
		return
	}
	w.engineStats.Store(&es)
	wm := w.cfg.MemoryWatermarkBytes
	if wm <= 0 {
		return
	}
	above := es.Bytes >= wm
	now := time.Now().UnixNano()
	switch {
	case above && (!w.aboveWatermark || now-w.watermarkLogNs >= int64(time.Minute)):
		if !w.aboveWatermark {
			w.cfg.Flight.Record(obs.EventMemWatermark, w.name, "engine memory over watermark", "",
				"engine_bytes", fmt.Sprintf("%d", es.Bytes),
				"watermark_bytes", fmt.Sprintf("%d", wm))
		}
		w.cfg.logger().Warn("stream over memory watermark",
			"stream", w.name,
			"engine_bytes", es.Bytes,
			"watermark_bytes", wm,
			"instances", es.Instances,
			"nodes", es.Nodes,
			"edges", es.Edges)
		w.watermarkLogNs = now
	case !above && w.aboveWatermark:
		w.cfg.Flight.Record(obs.EventMemRecover, w.name, "engine memory back under watermark", "",
			"engine_bytes", fmt.Sprintf("%d", es.Bytes),
			"watermark_bytes", fmt.Sprintf("%d", wm))
		w.cfg.logger().Info("stream back under memory watermark",
			"stream", w.name,
			"engine_bytes", es.Bytes,
			"watermark_bytes", wm)
	}
	w.aboveWatermark = above
}

// topkOf renders a solution as the notify differ's input. By default the
// entries follow the solution's deterministic id-sorted seed order with
// untracked (zero) gains — the differ then reports membership changes
// and solution-value drift, and suppresses meaningless id-order rank
// shifts. With NotifyExplainGains the worker spends tdnstream.Explain's
// oracle calls (runs on the worker goroutine, which owns the tracker) to
// attribute true greedy ranks and marginal gains, enabling per-seed
// rank_changed / gain_changed events.
func (w *worker) topkOf(st *workerState, sol tdnstream.Solution) notify.TopK {
	topk := notify.TopK{T: w.lastT, Value: sol.Value}
	if w.cfg.NotifyExplainGains {
		if contribs := tdnstream.Explain(st.tracker); len(contribs) > 0 {
			topk.Entries = make([]notify.Entry, len(contribs))
			for i, c := range contribs {
				topk.Entries[i] = notify.Entry{
					ID:    c.Seed,
					Label: w.labels.name(c.Seed),
					Gain:  c.Gain,
				}
			}
			return topk
		}
	}
	topk.Entries = make([]notify.Entry, len(sol.Seeds))
	for i, id := range sol.Seeds {
		topk.Entries[i] = notify.Entry{ID: id, Label: w.labels.name(id)}
	}
	return topk
}

// snapshot returns the current read snapshot (never nil after newWorker).
func (w *worker) snapshot() *Snapshot { return w.snap.Load() }

// oracleCalls reads the tracker's oracle-call counter.
func (w *worker) oracleCalls() uint64 { return w.state.Load().tracker.Calls().Value() }

// lastError returns the most recent step error ("" if none).
func (w *worker) lastError() string {
	if p := w.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// checkpointEnvelope is the server-level checkpoint: the library tracker
// snapshot plus the serving state it does not know about — the stream
// spec (written with Token redacted: checkpoint bodies travel over the
// admin API and land in the log, and the bearer secret has no business
// in either place), the label dictionary (NodeIDs are
// interning-order-dependent), the notify sequence counter (so a restored
// stream stamps events past everything subscribers already saw), and the
// stream-logical counters. The stream clock is not stored: the restored
// tracker reports it through its Now() hook (tdnstream.TrackerNow). For
// sharded specs the Tracker blob is a shard-engine envelope holding one
// gob snapshot per partition.
//
// The same envelope is the body of POST /v1/admin/checkpoint and the
// payload of a snapshot frame in the stream's write-ahead log.
type checkpointEnvelope struct {
	Version   int
	Spec      StreamSpec
	Names     []string
	Tracker   []byte
	NotifySeq uint64
	Counters  checkpointCounters
}

// checkpointCounters is the stream-logical counter snapshot embedded in
// an envelope, valued at the log position the state covers: Ingested is
// written as processed+stale_dropped+failed+superseded rather than the
// live ingest counter, because every acknowledged record is appended to
// the log before it is counted ingested — records acknowledged but not
// yet processed lie past the covered position and re-count themselves
// during replay. A rebooted daemon thus reports exactly the counters an
// uninterrupted run would have, and the read-your-writes identity
// (processed+stale_dropped+failed+superseded == ingested) survives a
// crash.
type checkpointCounters struct {
	Ingested     uint64
	Processed    uint64
	StaleDropped uint64
	Failed       uint64
	Superseded   uint64
	Steps        uint64
	Chunks       uint64
}

// checkpointVersion is the only envelope version this server writes and
// reads.
const checkpointVersion = 5

// snapMark is what a checkpoint compares to tell an idle stream: the
// counters and notify sequence a snapshot recorded. Events published
// without processing (quality, stream status) move the sequence alone.
type snapMark struct {
	counters checkpointCounters
	seq      uint64
}

// mark returns the envelope's snapMark.
func (e *checkpointEnvelope) mark() *snapMark {
	return &snapMark{counters: e.Counters, seq: e.NotifySeq}
}

// mark returns the stream's live snapMark (worker goroutine only).
func (w *worker) mark() snapMark {
	return snapMark{counters: w.m.checkpointCounters(), seq: w.notifySeq()}
}

// notifySeq reads the stream's notify sequence counter (0 without a
// hub).
func (w *worker) notifySeq() uint64 {
	if w.hub == nil {
		return 0
	}
	return w.hub.Seq(w.name)
}

// checkpoint serializes the stream (runs on the worker goroutine via
// do). Queued chunks are processed first: every record already
// acknowledged with 200 OK is in the serialized state or, with a
// write-ahead log, past the position the state covers.
func (w *worker) checkpoint() ([]byte, *snapMark, error) {
	w.drainQueued()
	st := w.state.Load()
	var trk bytes.Buffer
	if err := tdnstream.SaveTracker(&trk, st.tracker); err != nil {
		return nil, nil, err
	}
	env := checkpointEnvelope{
		Spec:      st.spec,
		Names:     w.labels.names(),
		Tracker:   trk.Bytes(),
		NotifySeq: w.notifySeq(),
		Counters:  w.m.checkpointCounters(),
	}
	env.Spec.Token = "" // bearer secrets never leave the process
	data, err := encodeCheckpoint(&env)
	return data, env.mark(), err
}

// encodeCheckpoint gob-encodes an envelope at the current version.
func encodeCheckpoint(env *checkpointEnvelope) ([]byte, error) {
	env.Version = checkpointVersion
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return nil, fmt.Errorf("server: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// logCheckpoint appends a snapshot of the stream to its write-ahead log
// and drops the history it covers (runs on the worker goroutine via
// do). The snapshot covers the applied watermark, not its own position:
// handlers keep appending and acknowledging chunks while the state
// serializes, and those chunks precede the frame without being in its
// state. The log is synced whatever the fsync policy before any segment
// goes, so a power loss can never take the snapshot after the history
// it replaces. A failed append or sync degrades the stream like an
// ingest fault; the truncation point stays put, and the next checkpoint
// tries again. A stream that is already degraded is skipped.
func (w *worker) logCheckpoint() error {
	if w.degraded.Load() {
		// The repair loop owns the faulted log; the next checkpoint
		// after it heals takes the snapshot.
		return fmt.Errorf("server: stream %q: write-ahead log degraded; checkpoint skipped", w.name)
	}
	w.drainQueued()
	if w.snapped != nil && *w.snapped == w.mark() {
		return nil // idle since the newest snapshot
	}
	data, mark, err := w.checkpoint()
	if err != nil {
		return err
	}
	covers, err := w.appendSnapshot(data)
	if err != nil {
		err = fmt.Errorf("server: stream %q: checkpoint snapshot: %w", w.name, err)
		w.degrade(err)
		return err
	}
	w.snapped = mark
	w.cfg.Flight.Record(obs.EventCheckpointSaved, w.name, "checkpoint snapshot logged", "",
		"bytes", fmt.Sprintf("%d", len(data)),
		"covers_seg", fmt.Sprintf("%d", covers.Seg),
		"covers_off", fmt.Sprintf("%d", covers.Off))
	removed, err := w.wlog.TruncateBefore(covers)
	if removed > 0 {
		w.cfg.Flight.Record(obs.EventWALTruncated, w.name, "snapshot-covered segments truncated", "",
			"segments", fmt.Sprintf("%d", removed))
	}
	return err
}

// appendSnapshot appends a checkpoint's snapshot frame and syncs the
// log, returning the position the snapshot covers: the applied
// watermark, or — for a stream whose chunks are not logged — everything
// before the frame. walMu keeps chunk appends, and the segment rotations
// they may cause, out until the Sync is done, so the frame is in a
// segment the Sync reaches under every fsync policy.
func (w *worker) appendSnapshot(data []byte) (wal.Pos, error) {
	w.walMu.Lock()
	defer w.walMu.Unlock()
	covers := w.walApplied
	if !w.logChunks {
		covers = w.wlog.End()
	}
	if _, _, err := w.wlog.Append(wal.AppendEncodeSnapshot(nil, covers, data)); err != nil {
		return wal.Pos{}, err
	}
	return covers, w.wlog.Sync()
}

// destroyWAL deletes the stream's log directory — stream removal, not
// shutdown: a stream re-created under this name must start with no
// history.
func (w *worker) destroyWAL() {
	if w.wlog != nil {
		if err := w.wlog.Remove(); err != nil {
			msg := err.Error()
			w.lastErr.Store(&msg)
		}
	}
}

// restore swaps in checkpointed state (runs on the worker goroutine via
// do). The stream adopts the checkpoint's spec wholesale — algorithm,
// lifetime policy and time mode — exactly as if the stream had been
// created from the checkpoint. Randomized lifetime policies resume from
// their seed, not from their exact stream position — constant lifetimes
// restore bit-exactly.
//
// Queued chunks are discarded, not processed: their effect on the old
// state is wiped by the swap anyway, so feeding them through the
// pipeline first would be pure waste. They were acknowledged with 200
// OK, so they are accounted under the superseded counter — replaced by
// the restore rather than processed, dropped or failed — keeping
// processed+stale_dropped+failed+superseded == ingested convergent for
// read-your-writes pollers.
//
// The swap quiesces ingest: it holds closeMu for writing, so no enqueue
// is in flight while the queue is emptied and the label dictionary,
// state and epoch are replaced together. Handlers that interned records
// under the old dictionary carry the old epoch and are refused at
// enqueue (errStaleIngest → the client retries); handlers that observe
// the new epoch also observe the new dictionary. Interning is atomic
// with the epoch check (internAndEnqueue holds the read lock across
// both), so a refused request can never have interned labels into the
// new dictionary first.
func (w *worker) restore(env *checkpointEnvelope) error {
	env.Spec.Name = w.name // a renamed checkpoint restores into this stream
	// Envelopes are written token-redacted, so the embedded spec cannot
	// carry auth; the stream's live token survives the restore untouched
	// (w.token is worker state, not swapped state). The WAL toggle is
	// likewise a property of the hosting stream, not the donor
	// checkpoint: adopting the donor's "off" would silently stop logging
	// the chunks this stream acknowledges.
	env.Spec.Token = ""
	env.Spec.WAL = w.state.Load().spec.WAL
	st, err := buildState(env.Spec, env.Tracker)
	if err != nil {
		return err
	}
	// The bulk of the backlog is discarded before the lock lands, so
	// concurrent ingest keeps seeing fast backpressure instead of blocking
	// behind a long queue walk; the locked pass only mops up chunks that
	// slipped in before the write lock was acquired.
	w.discardQueued()
	w.closeMu.Lock()
	w.discardQueued()
	// Log the restore before swapping: it is one more event in the
	// stream's history, a snapshot frame in line with the chunks, so
	// crash recovery starts from it and replays only the chunks after
	// it. The frame carries the live counters (the envelope's own
	// describe its source stream; restore keeps the live ones and
	// accounts the discarded queue as superseded), so discard must
	// precede it, and never a notify sequence below the live one. A frame that cannot be appended fails the restore with
	// the old state intact and degrades the stream; the queue it already
	// discarded stays discarded — in that corner a later crash replay
	// re-applies those still-logged chunks, an over-recovery of
	// acknowledged records, never a loss.
	var tok wal.Token
	if w.wlog != nil {
		env.Counters = w.m.checkpointCounters()
		env.NotifySeq = max(env.NotifySeq, w.notifySeq())
		end, t, err := w.appendRestore(env)
		if err != nil {
			w.closeMu.Unlock()
			w.degrade(err)
			return err
		}
		w.setWALApplied(end)
		w.snapped = env.mark()
		tok = t
	}
	w.labels.reset(env.Names)
	w.lastT, _ = tdnstream.TrackerNow(st.tracker)
	w.state.Store(st)
	w.epoch++
	w.closeMu.Unlock()
	w.lastErr.Store(nil)
	// Sequence continuity across the swap: never reuse numbers the
	// checkpointed incarnation already stamped (Resume keeps the floor
	// monotone even when the checkpoint is older than the live stream),
	// and resync subscribers with a keyframe — the publish below diffs
	// against a snapshot that no longer describes this stream.
	if w.hub != nil {
		w.hub.Resume(w.name, env.NotifySeq)
	}
	w.cfg.Flight.Record(obs.EventRestore, w.name, "checkpoint restore replaced live state", "",
		"epoch", fmt.Sprintf("%d", w.epoch))
	w.publish()
	// Durability per policy, outside the quiesce window. The swap has
	// taken effect in memory either way; a failed group commit is
	// reported like the ingest path reports it — the caller must not
	// believe the restore survives a machine crash when the log could
	// not prove it.
	if err := w.commitWAL(tok, nil); err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	return nil
}

// drainQueued processes the chunks that were in the queue when it was
// called (runs on the worker goroutine). The run-loop select picks admin
// operations and chunks in arbitrary order, so checkpoint calls this
// first: every record already acknowledged must be in the serialized
// state or past the position it covers. The drain is bounded by the queue length at entry: sustained
// ingest can keep the queue non-empty forever, and records enqueued
// after the operation began are not its responsibility.
func (w *worker) drainQueued() {
	for n := len(w.queue); n > 0; n-- {
		select {
		case c, ok := <-w.queue:
			if !ok {
				return
			}
			w.process(c)
		default:
			return
		}
	}
}

// discardQueued empties the queue without touching the tracker (runs on
// the worker goroutine), counting the dropped records as superseded —
// restore calls it because the state those chunks would have fed is
// about to be replaced wholesale. Bounded like drainQueued; restore's
// locked call cannot race new enqueues at all (the pending write lock
// blocks them), so there the entry length is exact.
func (w *worker) discardQueued() {
	for n := len(w.queue); n > 0; n-- {
		select {
		case c, ok := <-w.queue:
			if !ok {
				return
			}
			w.m.superseded.Add(uint64(len(c.rows)))
			c.trace.Release()
		default:
			return
		}
	}
}

// decodeCheckpoint parses a checkpoint body.
func decodeCheckpoint(data []byte) (*checkpointEnvelope, error) {
	var env checkpointEnvelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, fmt.Errorf("server: decode checkpoint: %w", err)
	}
	if env.Spec.Name == "" || len(env.Tracker) == 0 {
		return nil, errors.New("server: decode checkpoint: empty envelope")
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("server: checkpoint version %d, want %d", env.Version, checkpointVersion)
	}
	return &env, nil
}
