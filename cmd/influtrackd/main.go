// Command influtrackd serves tracker streams over HTTP: interactions are
// POSTed as NDJSON or CSV bodies and the current influential nodes are
// read back without blocking ingestion.
//
// Each -stream flag hosts one named tracker; the flag's value is a
// comma-separated key=value list:
//
//	name=demo            stream name (required; characters [A-Za-z0-9._-])
//	algo=histapprox      sieveadn | basicreduction | histapprox | histapprox-refined |
//	                     greedy | random | dim | imm | timplus
//	k=10 eps=0.1 L=1000  tracker parameters (L required for the reduction family)
//	beta=32              dim sketch fanout
//	shards=0             ≥ 2 partitions the stream by source-node hash across
//	                     that many tracker instances with a global top-k merge
//	                     (the -shards flag sets a default for every stream)
//	lifetime=geometric   constant | geometric | uniform | zipf
//	window=0 p=0.001     constant width / geometric forgetting probability
//	lo=1 hi=100 s=1.1    uniform bounds / zipf exponent
//	seed=42              RNG seed (lifetimes and randomized algorithms)
//	time=event           event (records carry t) | arrival (server-clocked steps)
//	token=secret         bearer token gating ingest, admin and the events feed
//	                     (Authorization: Bearer secret; 401 on mismatch)
//	wal=on               on (default when -wal-dir is set) | off — log only
//	                     this stream's snapshots, not its ingest chunks
//
// Usage:
//
//	influtrackd -addr :8080 \
//	    -stream "name=demo,algo=histapprox,k=10,eps=0.1,L=1000,lifetime=geometric,p=0.001" \
//	    -stream "name=adn,algo=sieveadn,k=5,eps=0.2,lifetime=constant,window=1000,time=arrival"
//
//	curl -X POST --data-binary @interactions.ndjson \
//	    -H 'Content-Type: application/x-ndjson' 'localhost:8080/v1/ingest?stream=demo'
//	curl 'localhost:8080/v1/topk?stream=demo'
//
// Instead of polling /v1/topk, dashboards subscribe to the push feed —
// top-k change events (entered, left, rank_changed, gain_changed,
// keyframe) over SSE, resumable after a disconnect via the standard
// Last-Event-ID header (or ?since=<seq>); the same endpoint upgrades to
// a WebSocket on request:
//
//	curl -N 'localhost:8080/v1/streams/demo/events'
//	curl -N -H 'Last-Event-ID: 42' 'localhost:8080/v1/streams/demo/events'
//
// The -notify-* flags tune the push subsystem: journal depth (how far a
// resume can reach before falling back to a keyframe), keyframe cadence,
// the gain-change epsilon, per-subscriber queue bounds (slow consumers
// are dropped, never waited for), and keepalive. /v1/topk answers carry
// the event sequence number as an ETag, so residual pollers can send
// If-None-Match and get 304 until the top-k actually changes.
//
// -wal-dir makes streams durable: each stream keeps one write-ahead log
// there, and every ingest chunk is appended to it *before* the 200 OK.
// A checkpoint is a snapshot frame in the same log: on SIGTERM/SIGINT
// the daemon stops accepting traffic, drains every ingest queue and
// appends one snapshot per stream, and -checkpoint-interval appends them
// in the background too. A starting daemon hosts every stream whose log
// holds a snapshot — including streams created over HTTP, which no
// -stream flag names — and rebuilds each from its newest snapshot plus
// the chunks after it: the exact pre-crash state, zero acknowledged-
// record loss under kill -9. A -stream flag naming a logged stream keeps
// its token and wal= setting; the rest of the spec comes from the
// snapshot. -wal-fsync picks the policy ("always": the ack waits for a
// group-committed fsync, surviving power loss; "interval", the default:
// fsync every 100ms, exact under process kills, up to one interval
// exposed to power loss; "none": never fsync on ingest). Snapshots are
// fsynced whatever the policy before the segments they cover are
// deleted, so the log's footprint stays bounded by roughly one
// checkpoint interval of traffic (-wal-segment-bytes sets the rotation
// size). A wal=off stream logs snapshots only, so a restart recovers
// its newest one:
//
//	influtrackd -addr :8080 -checkpoint-interval 30s \
//	    -wal-dir /var/lib/influtrackd/wal -wal-fsync always \
//	    -stream "name=demo,algo=histapprox,k=10,eps=0.1,L=1000,p=0.001"
//
// Without -wal-dir streams live in memory only; POST
// /v1/admin/checkpoint and /v1/admin/restore still move a stream's state
// between servers.
//
// A WAL fault (disk full, I/O error on fsync) does not take the stream
// down: it degrades — ingest answers 503 with a Retry-After hint while
// /v1/topk and the events feed keep serving, and a background repair
// loop (exponential backoff, tunable with -wal-repair-backoff) rotates
// past the damage and restores ingest automatically. Degradation is
// visible in /healthz, /v1/streams (state/degraded_seconds), /metrics
// (influtrackd_wal_degraded) and as stream_status events on the push
// feed.
//
// -fault-inject (testing/chaos drills only — never production) routes
// all WAL file I/O through an in-process fault injector
// and exposes /v1/admin/fault, letting a chaos harness (see
// influtrack-loadgen -chaos) schedule disk-full windows, fsync latency,
// I/O errors and crash points against the live daemon. A fault rule
// with crash=true exits the process with status 137, simulating kill -9
// at exactly the chosen syscall.
//
// Observability: the daemon logs structured records via log/slog
// (-log-format text|json), every serving-path latency is exported as a
// p50/p99/p999 summary on /metrics, and per-request lifecycle traces
// (decode → intern → WAL → queue → tracker → publish → notify) are
// served by /v1/streams/{name}/trace. Engine introspection reports what
// each tracker's algorithm state costs: /v1/streams/{name}/stats walks
// the live structures (graphs, histogram instances, candidate reach
// sets, shard balance) for a deep JSON breakdown, the
// influtrackd_engine_* gauges track the walked footprint per stream on
// /metrics (-engine-stats=false disables the per-publish refresh), and
// -mem-watermark logs a Warn when any stream's engine memory crosses
// the given byte budget.
//
// Quality auditing closes the loop on *answer* quality, not just cost:
// on a background cadence (-audit-interval, default 15s; 0 disables)
// each stream rescored exactly — the served seeds' true spread on the
// live graph versus a budget-capped reference greedy (-audit-budget
// oracle calls) — plus top-k stability (Jaccard / Kendall-tau vs the
// previous audit) and, for sharded streams, the cross-partition merge
// gap. Results surface as cached influtrackd_quality_* gauges on
// /metrics and a deep JSON report (with history ring) at
// /v1/streams/{name}/quality, which runs a fresh audit on demand.
// -audit-floor sets a quality-ratio floor: crossings log a Warn (re-
// warned once a minute while below, Info on recovery) and publish
// quality events on the push feed, mirroring -mem-watermark semantics.
// Audits are suppressed while a stream is replaying its WAL or
// degraded. -debug-addr starts a second
// listener carrying /debug/pprof/* and a /metrics mirror, so profiling
// endpoints never ship on the public -addr. -version prints the build
// (injectable with -ldflags "-X tdnstream/internal/obs.Version=v1.2.3")
// and exits. See the package documentation's Observability section and
// examples/serving/README.md for a monitoring walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tdnstream"
	"tdnstream/internal/fault"
	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
	"tdnstream/internal/server"
)

// streamFlags collects repeated -stream values.
type streamFlags []string

func (s *streamFlags) String() string { return strings.Join(*s, "; ") }
func (s *streamFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// parseStreamSpec turns a "k1=v1,k2=v2" flag value into a StreamSpec.
func parseStreamSpec(arg string) (server.StreamSpec, error) {
	spec := server.StreamSpec{
		Tracker:  tdnstream.TrackerSpec{Algo: "histapprox", K: 10},
		Lifetime: tdnstream.LifetimeSpec{Policy: "geometric"},
	}
	for _, kv := range strings.Split(arg, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("bad stream option %q (want key=value)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		toInt := func() (int, error) { return strconv.Atoi(val) }
		toFloat := func() (float64, error) { return strconv.ParseFloat(val, 64) }
		var err error
		switch strings.ToLower(key) {
		case "name":
			spec.Name = val
		case "algo":
			spec.Tracker.Algo = val
		case "k":
			spec.Tracker.K, err = toInt()
		case "eps":
			spec.Tracker.Eps, err = toFloat()
		case "l", "maxlife":
			spec.Tracker.L, err = toInt()
			spec.Lifetime.L = spec.Tracker.L
		case "beta":
			spec.Tracker.Beta, err = toInt()
		case "shards":
			spec.Tracker.Shards, err = toInt()
		case "lifetime":
			spec.Lifetime.Policy = val
		case "window":
			spec.Lifetime.Window, err = toInt()
			if spec.Lifetime.Window > 0 {
				spec.Lifetime.Policy = "constant"
			}
		case "p":
			spec.Lifetime.P, err = toFloat()
		case "lo":
			spec.Lifetime.Lo, err = toInt()
		case "hi":
			spec.Lifetime.Hi, err = toInt()
		case "s":
			spec.Lifetime.S, err = toFloat()
		case "seed":
			var n int
			n, err = toInt()
			spec.Tracker.Seed = int64(n)
			spec.Lifetime.Seed = int64(n)
		case "time":
			spec.TimeMode = val
		case "token":
			spec.Token = val
		case "wal":
			spec.WAL = val
		default:
			return spec, fmt.Errorf("unknown stream option %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("bad value for stream option %q: %v", key, err)
		}
	}
	if spec.Name == "" {
		return spec, errors.New("stream needs name=")
	}
	return spec, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 256, "per-stream ingest queue depth (chunks)")
	chunkSize := flag.Int("chunk", 4096, "records per ingest chunk")
	maxBody := flag.Int64("max-body", 256<<20, "maximum ingest body bytes")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "additionally snapshot every stream into its log in the background at this interval (0 = shutdown only; needs -wal-dir)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory (one log per stream): ingest chunks are logged before the 200 OK, checkpoints are snapshots in the same log, and a start recovers every logged stream — exact crash recovery")
	walFsync := flag.String("wal-fsync", "interval", "WAL fsync policy: always (group-committed fsync before each ack), interval (background fsync every 100ms), none")
	walSegBytes := flag.Int64("wal-segment-bytes", 64<<20, "WAL segment rotation size; checkpoints truncate fully-covered segments")
	walRepairBackoff := flag.Duration("wal-repair-backoff", 0, "initial retry interval for the degraded-stream WAL repair loop (0 = default 100ms; doubles up to 50× per retry)")
	faultInject := flag.Bool("fault-inject", false, "TESTING ONLY: route WAL file I/O through an in-process fault injector and expose /v1/admin/fault for chaos drills; crash rules exit(137)")
	faultSeed := flag.Int64("fault-seed", 1, "RNG seed for probabilistic fault rules (needs -fault-inject)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for draining queues")
	shards := flag.Int("shards", 0, "default shard count for streams that set none (≥ 2 partitions each stream by source-node hash)")
	notifyJournal := flag.Int("notify-journal", 0, "events retained per stream for Last-Event-ID resume (0 = default 1024)")
	notifyKeyframe := flag.Int("notify-keyframe", 0, "publishes between full-top-k keyframe events (0 = default 64)")
	notifyEpsilon := flag.Int("notify-epsilon", 0, "suppress gain_changed / tied-rank events whose influence move is at most this many nodes")
	notifyBuffer := flag.Int("notify-buffer", 0, "per-subscriber event queue bound; overflowing subscribers are dropped (0 = default 64)")
	notifyHeartbeat := flag.Duration("notify-heartbeat", 0, "idle keepalive interval on event subscriptions (0 = default 15s)")
	notifyGains := flag.Bool("notify-gains", false, "spend oracle calls per publish to attribute per-seed ranks and gains to events (enables rank_changed / per-seed gain_changed)")
	memWatermark := flag.Int64("mem-watermark", 0, "per-stream engine-memory watermark in bytes: streams whose introspected footprint crosses it are logged at Warn (0 = off)")
	auditInterval := flag.Duration("audit-interval", 15*time.Second, "background quality-audit cadence per stream: exact rescoring of served seeds vs a budgeted reference greedy (0 disables auditing entirely)")
	auditBudget := flag.Int("audit-budget", 0, "oracle-call budget per audit's reference greedy (0 = default 4096); the served-seed rescore is always exact")
	auditFloor := flag.Float64("audit-floor", 0, "quality-ratio floor: audits below it log a Warn and publish a quality event on the push feed, mirroring -mem-watermark semantics (0 = off)")
	engineStats := flag.Bool("engine-stats", true, "refresh per-stream engine introspection at each snapshot publish (the influtrackd_engine_* gauges and the memory-watermark log)")
	logFormat := flag.String("log-format", "text", "log output format: text | json (structured logs on stderr via log/slog)")
	debugAddr := flag.String("debug-addr", "", "separate debug listener serving /debug/pprof/* and a /metrics mirror (empty = off; profiling endpoints never ship on the public -addr)")
	traceOn := flag.Bool("trace", true, "record per-request lifecycle traces: stage summaries on /metrics plus the /v1/streams/{name}/trace drill-down")
	traceRing := flag.Int("trace-ring", 0, "recent request traces retained per stream (0 = default 256)")
	traceSlow := flag.Duration("trace-slow", 0, "log any request slower than this with its per-stage breakdown (0 = default 500ms)")
	flightOn := flag.Bool("flight-recorder", true, "record lifecycle events (WAL degrade/repair, checkpoints, evictions, stalls, Warn+ logs) into a bounded in-memory ring dumped by the diagnostics bundle")
	flightRing := flag.Int("flight-ring", 1024, "flight-recorder ring capacity (events)")
	postmortemDir := flag.String("postmortem-dir", "", "write a diagnostics bundle (tar.gz) here on panic and on SIGQUIT (empty = off)")
	showVersion := flag.Bool("version", false, "print build version and exit")
	var streams streamFlags
	flag.Var(&streams, "stream", "hosted stream spec (repeatable); see command doc")
	flag.Parse()

	if *showVersion {
		fmt.Println(obs.Build().String())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "influtrackd: -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	// The flight recorder sits in front of the log handler as a tee:
	// every Warn+ record lands in the black-box ring too, so a bundle
	// pulled after an incident shows warnings interleaved with the typed
	// lifecycle events even when stderr has long since scrolled away.
	var flight *obs.Flight
	if *flightOn {
		flight = obs.NewFlight(*flightRing, nil)
		handler = obs.NewTeeHandler(handler, flight)
	}
	logger := slog.New(handler)
	// The default logger feeds every package that logs without an
	// explicit *slog.Logger (libraries).
	slog.SetDefault(logger)
	die := func(msg string, attrs ...any) {
		logger.Error(msg, attrs...)
		os.Exit(1)
	}

	if *ckptInterval > 0 && *walDir == "" {
		die("-checkpoint-interval needs -wal-dir")
	}

	if len(streams) == 0 {
		streams = streamFlags{"name=default,algo=histapprox,k=10,eps=0.1,L=1000,lifetime=geometric,p=0.001,seed=42"}
	}

	// Crash postmortem: on a worker or HTTP-path panic (and on SIGQUIT)
	// write the full diagnostics bundle to -postmortem-dir before the
	// panic propagates — the flight ring, profiles and per-stream state
	// captured at the moment of death, not reconstructed after it. The
	// mutex serializes concurrent panics; the server pointer is filled
	// in after construction (a boot-replay panic before that finds nil
	// and skips the bundle, keeping only the flight EventPanic record).
	var pm struct {
		sync.Mutex
		srv *server.Server
	}
	writePostmortem := func(reason string) {
		if *postmortemDir == "" {
			return
		}
		pm.Lock()
		defer pm.Unlock()
		if pm.srv == nil {
			return
		}
		path, err := pm.srv.WritePostmortem(*postmortemDir, reason)
		if err != nil {
			logger.Error("postmortem bundle failed", slog.String("reason", reason), slog.Any("error", err))
			return
		}
		logger.Error("postmortem bundle written", slog.String("reason", reason), slog.String("path", path))
	}

	cfg := server.Config{
		QueueDepth:      *queue,
		MaxChunk:        *chunkSize,
		MaxBodyBytes:    *maxBody,
		RetryAfter:      *retryAfter,
		WALDir:          *walDir,
		WALFsync:        *walFsync,
		WALSegmentBytes: *walSegBytes,
		RepairBackoff:   *walRepairBackoff,
		Notify: notify.Config{
			JournalSize:      *notifyJournal,
			KeyframeEvery:    *notifyKeyframe,
			Epsilon:          *notifyEpsilon,
			SubscriberBuffer: *notifyBuffer,
		},
		NotifyHeartbeat:      *notifyHeartbeat,
		NotifyExplainGains:   *notifyGains,
		MemoryWatermarkBytes: *memWatermark,
		DisableEngineStats:   !*engineStats,
		AuditInterval:        *auditInterval,
		AuditBudget:          *auditBudget,
		AuditFloor:           *auditFloor,
		DisableAudit:         *auditInterval <= 0,
		Logger:               logger,
		DisableTracing:       !*traceOn,
		TraceRing:            *traceRing,
		SlowTrace:            *traceSlow,
		BuildLabels:          map[string]string{"shards": strconv.Itoa(*shards)},
		Flight:               flight,
		OnPanic:              func(v any) { writePostmortem("panic") },
	}
	if *faultInject {
		inj := fault.NewInjector(nil, *faultSeed)
		// A crash rule means "die as if kill -9 at this syscall": exit
		// without running deferred cleanup so recovery gets exercised
		// against a genuinely torn state. 137 = 128+SIGKILL, what a real
		// kill -9 reports, so harnesses treat both identically.
		inj.CrashFn = func() { os.Exit(137) }
		// Every fault-rule hit lands in the flight ring, so a chaos
		// drill's bundle shows the injected cause right next to the
		// degrade/repair events it provoked. Record is nil-safe, so this
		// wiring is unconditional.
		inj.OnFire = func(op fault.Op, path string, err error, delay time.Duration, crash bool) {
			errno := ""
			if err != nil {
				errno = err.Error()
			}
			flight.Record(obs.EventFaultRuleHit, "", "injected fault rule fired", errno,
				"op", string(op), "path", path,
				"delay", delay.String(), "crash", strconv.FormatBool(crash))
		}
		cfg.Fault = inj
		logger.Warn("FAULT INJECTION ENABLED — /v1/admin/fault is live; not for production",
			slog.Int64("seed", *faultSeed))
	}
	for _, arg := range streams {
		spec, err := parseStreamSpec(arg)
		if err != nil {
			die("bad -stream flag", slog.String("flag", arg), slog.Any("error", err))
		}
		if spec.Tracker.Shards == 0 {
			spec.Tracker.Shards = *shards
		}
		cfg.Streams = append(cfg.Streams, spec)
	}

	// New recovers every flagged stream, and every other stream whose
	// log under -wal-dir holds a snapshot, before it returns.
	srv, err := server.New(cfg)
	if err != nil {
		die("server construction failed", slog.Any("error", err))
	}
	pm.Lock()
	pm.srv = srv
	pm.Unlock()

	// Panics on the request path write the postmortem too (then re-panic
	// so net/http still aborts the connection and logs the stack).
	onHTTPPanic := func(v any) {
		flight.Record(obs.EventPanic, "", "http handler panic", obs.PanicValue(v))
		writePostmortem("panic")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: obs.RecoverHandler(srv.Handler(), onHTTPPanic)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT triggers a postmortem without killing the process: the
	// operator's "dump everything, I'll decide later" signal. (Installing
	// the handler replaces the Go runtime's stack-dump-and-exit default;
	// the goroutine dump still lands inside the bundle.)
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			logger.Warn("SIGQUIT received — writing postmortem bundle")
			writePostmortem("sigquit")
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving",
		slog.Int("streams", len(srv.StreamNames())),
		slog.String("addr", *addr),
		slog.String("version", obs.Build().Version),
		slog.Bool("tracing", *traceOn))

	// The debug listener carries the profiling surface (and a /metrics
	// mirror so one scrape config can stay off the public port). It is a
	// separate mux on a separate address: nothing here is ever routed on
	// -addr, so exposing pprof to operators cannot expose it to clients.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/metrics", srv.Handler())
		// The diagnostics bundle lives on the debug listener only — it
		// carries goroutine dumps and directory listings that must not be
		// reachable from the public -addr. ?cpu=15s adds a CPU profile.
		dbg.Handle("/v1/admin/debug/bundle", srv.BundleHandler())
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: dbg}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		logger.Info("debug listener up (pprof + metrics)", slog.String("addr", *debugAddr))
	}

	var ckptLoopDone chan struct{}
	if *ckptInterval > 0 {
		ckptLoopDone = make(chan struct{})
		go func() {
			defer close(ckptLoopDone)
			srv.PeriodicCheckpoints(ctx, *ckptInterval,
				func(err error) { logger.Error("background checkpoint failed", slog.Any("error", err)) })
		}()
		logger.Info("background checkpoints enabled", slog.Duration("interval", *ckptInterval))
	}

	select {
	case err := <-errc:
		die("listener failed", slog.Any("error", err))
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, drain queues, checkpoint, exit.
	// Events subscribers are dropped first — their handlers stream until
	// the client leaves, so without this every live dashboard would hold
	// Shutdown hostage for the full drain timeout. Their notify state
	// survives for the checkpoint; clients reconnect after restart.
	// Close itself writes no snapshot: the checkpoint below does.
	logger.Info("shutting down — draining ingest queues")
	srv.CloseSubscriptions()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if dbgSrv != nil {
		dbgSrv.Close()
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Graceful drain timed out with handlers still live. Force the
		// connections closed before checkpointing: no client can receive a
		// 200 past this point, so nothing acknowledged is absent from the
		// checkpoint.
		logger.Warn("http shutdown timed out; closing connections", slog.Any("error", err))
		httpSrv.Close()
	}
	if *walDir != "" {
		// Let an in-flight periodic checkpoint finish first; the loop
		// exits promptly — its context (ctx) is already canceled.
		if ckptLoopDone != nil {
			<-ckptLoopDone
		}
		// Checkpoint under a fresh budget: the drain context may already be
		// spent if Shutdown timed out, and an expired context here would
		// skip the checkpoint exactly when it matters most.
		ckptCtx, ckptCancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.CheckpointAll(ckptCtx); err != nil {
			logger.Error("shutdown checkpoint failed", slog.Any("error", err))
		}
		ckptCancel()
	}
	if err := srv.Close(); err != nil {
		logger.Error("drain failed", slog.Any("error", err))
	}
	logger.Info("bye")
}
