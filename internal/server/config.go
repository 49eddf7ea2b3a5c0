// Package server is the online serving layer: an HTTP service that hosts
// named tracker streams, accepts streamed interactions (NDJSON or CSV
// bodies on POST /v1/ingest), routes them through a bounded per-stream
// ingest queue into a worker goroutine that drives the library Pipeline in
// batches, and answers GET /v1/topk from an atomically-swapped Solution
// snapshot so queries never block ingestion.
//
// The shape follows live-stream servers (ingest endpoints feeding
// per-stream workers, snapshot read paths, explicit backpressure): when a
// stream's queue is full the ingest endpoint answers 429 with Retry-After
// instead of stalling the connection, and SIGTERM drains every queue
// before the process exits. Admin endpoints expose checkpoint save and
// restore wired to the library's gob persistence, so a service can restart
// without replaying the interaction history.
package server

import (
	"fmt"
	"log/slog"
	"time"

	"tdnstream"
	"tdnstream/internal/fault"
	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
)

// Time modes for a stream: how ingested records map to TDN time steps.
const (
	// TimeEvent: records carry explicit timestamps ("t" in NDJSON, the
	// third CSV column); the worker groups consecutive records by t into
	// per-step batches. Records at or before the stream's current time are
	// dropped (counted in the stale_dropped metric) — TDN time is strictly
	// increasing. Deterministic: replaying the same body yields the same
	// tracker state, which is what the end-to-end tests pin.
	TimeEvent = "event"
	// TimeArrival: record timestamps are ignored (producers may omit "t");
	// each enqueued chunk becomes one step at the next server-side step
	// number. This is the live-service mode — concurrent producers need no
	// clock coordination.
	TimeArrival = "arrival"
)

// WAL modes for a stream (StreamSpec.WAL): whether acknowledged ingest
// chunks are appended to the server's write-ahead log before the 200.
const (
	WALOn  = "on"
	WALOff = "off"
)

// StreamSpec describes one hosted tracker stream.
type StreamSpec struct {
	// Name identifies the stream in every endpoint's ?stream= parameter.
	// Names are restricted to 1-128 characters of [A-Za-z0-9._-] (and may
	// not be "." or ".."): they name the stream's write-ahead-log
	// directory, so path separators and traversal sequences must be
	// unrepresentable.
	Name string `json:"name"`
	// Tracker picks the algorithm (see tdnstream.TrackerAlgos).
	Tracker tdnstream.TrackerSpec `json:"tracker"`
	// Lifetime picks the decay policy (see tdnstream.LifetimePolicies).
	Lifetime tdnstream.LifetimeSpec `json:"lifetime"`
	// TimeMode is TimeEvent (default) or TimeArrival.
	TimeMode string `json:"time_mode,omitempty"`
	// WAL opts the stream's ingest chunks out of the server's
	// write-ahead log: "" or "on" logs every acknowledged ingest chunk
	// (when Config.WALDir is set), "off" leaves the log holding only the
	// stream's snapshots, so a restart recovers the newest one — for
	// purely reproducible feeds where replaying the source is cheaper
	// than logging it. Without a server WAL directory the field is
	// inert.
	WAL string `json:"wal,omitempty"`
	// Token, when non-empty, gates the stream's mutating and costly
	// endpoints (ingest, explain, admin checkpoint/restore, delete, and
	// the events feed) behind "Authorization: Bearer <token>" (compared
	// in constant time; 401 on mismatch). Read-only snapshot endpoints
	// (/v1/topk, /v1/streams, /healthz, /metrics) stay open. The token is
	// never reported back: stream listings omit it and checkpoint
	// envelopes are written with it redacted — an in-place restore and a
	// restart keep the hosting spec's token, and a stream re-created
	// purely from a checkpoint starts open until a spec re-supplies one.
	Token string `json:"token,omitempty"`
}

// validStreamName reports whether a stream name is safe to host. Names
// reach the filesystem (the stream's log is <WALDir>/<name>) and arrive
// over unauthenticated HTTP, so the charset must make traversal
// unrepresentable: no separators, no "..".
func validStreamName(name string) bool {
	if name == "" || len(name) > 128 || name == "." || name == ".." {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// validate checks the serving-level fields; tracker and lifetime
// parameters are validated by their constructors when buildState runs
// them for real.
func (s StreamSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("server: stream needs a name")
	}
	if !validStreamName(s.Name) {
		return fmt.Errorf("server: bad stream name %q (want 1-128 characters of [A-Za-z0-9._-], not \".\" or \"..\")", s.Name)
	}
	switch s.TimeMode {
	case "", TimeEvent, TimeArrival:
	default:
		return fmt.Errorf("server: stream %q: unknown time mode %q (want %q or %q)",
			s.Name, s.TimeMode, TimeEvent, TimeArrival)
	}
	switch s.WAL {
	case "", WALOn, WALOff:
	default:
		return fmt.Errorf("server: stream %q: unknown wal mode %q (want %q or %q)",
			s.Name, s.WAL, WALOn, WALOff)
	}
	return nil
}

func (s StreamSpec) timeMode() string {
	if s.TimeMode == "" {
		return TimeEvent
	}
	return s.TimeMode
}

// Config parameterizes a Server.
type Config struct {
	// QueueDepth bounds each stream's ingest queue, in chunks (default 256).
	// A full queue is the backpressure signal: ingest answers 429.
	QueueDepth int
	// MaxChunk bounds how many records one enqueued chunk holds (default
	// 4096). Larger chunks amortize queue traffic; smaller chunks bound
	// worker batch latency.
	MaxChunk int
	// MaxBodyBytes bounds one ingest request body (default 256 MiB). For
	// compressed bodies (Content-Encoding: gzip) it bounds both the wire
	// bytes and the decompressed size — the decompression-bomb guard.
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// SnapshotEvery refreshes the read snapshot every N processed chunks
	// (default 1 — after every chunk).
	SnapshotEvery int
	// Notify parameterizes the push subsystem (journal size, keyframe
	// cadence, gain epsilon, subscriber queue bound); zero values take
	// the notify package defaults. Every snapshot publish is diffed
	// against the previous one and the change events are fanned out to
	// the stream's /v1/streams/{name}/events subscribers.
	Notify notify.Config
	// NotifyHeartbeat is the idle keepalive interval on event
	// subscriptions — an SSE comment line or a WebSocket ping — so
	// intermediaries do not reap quiet connections (default 15s).
	NotifyHeartbeat time.Duration
	// WALDir enables the write-ahead log: one segmented append log per
	// stream under this directory (WALDir/<stream>/), written before
	// ingest acknowledges — 200 OK then means the record survives a
	// process kill, and (with WALFsync "always") a machine crash. The
	// log also holds the stream's snapshots (CheckpointAll, restores),
	// so New re-hosts every stream whose log holds one. Empty disables
	// durability: streams live in memory only.
	WALDir string
	// WALFsync is the log's fsync policy: wal.FsyncAlways,
	// wal.FsyncInterval (the default) or wal.FsyncNone. See the wal
	// package for the durability each buys.
	WALFsync string
	// WALFsyncInterval is the FsyncInterval cadence (default 100ms).
	WALFsyncInterval time.Duration
	// WALSegmentBytes rotates log segments at this size (default 64
	// MiB); snapshot-covered history is truncated whole segments at a
	// time.
	WALSegmentBytes int64
	// FS is the filesystem seam the write-ahead logs go through (nil =
	// the real OS). Fault-injection tests install a
	// fault.Injector here; when FS is nil but Fault is set, Fault is
	// used, so one knob wires both the seam and the admin endpoint.
	FS fault.FS
	// Fault, when non-nil, enables the /v1/admin/fault endpoint: chaos
	// harnesses install and clear fault rules over HTTP while the daemon
	// runs. Nil (the default) leaves the endpoint absent (404).
	Fault *fault.Injector
	// Clock supplies time to the degraded-stream repair loop (nil = wall
	// clock); fault tests pass a fake to make backoff schedules
	// deterministic.
	Clock fault.Clock
	// RepairBackoff is the initial delay before a degraded stream's
	// background repair attempt, doubling per failure up to
	// RepairBackoffMax (defaults 100ms and 5s). While degraded, ingest
	// answers 503 + Retry-After and reads keep serving the last good
	// snapshot; a successful repair flips the stream back to healthy.
	RepairBackoff    time.Duration
	RepairBackoffMax time.Duration
	// Logger receives the server's structured log records: degradation
	// and repair transitions, 5xx responses, slow-request traces. Nil
	// means slog.Default().
	Logger *slog.Logger
	// DisableTracing turns off per-request stage tracing (the trace
	// ring, per-stage histograms and the /v1/streams/{name}/trace
	// endpoint). The coarse serving histograms (ingest, topk, WAL
	// commit, worker batch) stay on — they are a handful of atomic
	// adds per request.
	DisableTracing bool
	// TraceRing bounds each stream's ring of recent request traces
	// (default 256).
	TraceRing int
	// SlowTrace is the slow-request threshold: finished requests at or
	// above it are logged with their per-stage breakdown (default
	// 500ms).
	SlowTrace time.Duration
	// BuildLabels are extra labels rendered on influtrackd_build_info
	// (the daemon adds e.g. shards="4"). Keys must be valid Prometheus
	// label names; values are quoted verbatim.
	BuildLabels map[string]string
	// MemoryWatermarkBytes, when > 0, is the per-stream engine-memory
	// watermark: a stream whose introspected footprint (engine_bytes)
	// crosses it is logged at Warn on the upward crossing and once a
	// minute while above, and at Info on recovery. 0 disables the log.
	MemoryWatermarkBytes int64
	// DisableEngineStats turns off the per-publish engine-introspection
	// refresh (the walk behind the influtrackd_engine_* gauges and the
	// memory-watermark log). The deep stats endpoint
	// (/v1/streams/{name}/stats) still works — it collects on demand.
	DisableEngineStats bool
	// AuditInterval is the quality auditor's time cadence: each stream's
	// worker re-audits its served solution (exact rescoring vs a
	// budget-capped reference greedy, top-k stability, shard merge gap —
	// see internal/audit) once this much time passed since its last
	// audit, piggybacking on snapshot publishes so the audit never
	// preempts a drain. Default 15s; audits also stay off while a
	// stream replays its WAL or is degraded. Set DisableAudit to turn
	// auditing off entirely.
	AuditInterval time.Duration
	// AuditEvery is the optional count cadence: an audit also becomes
	// due every N processed records (0 = time cadence only).
	AuditEvery int
	// AuditBudget caps the oracle calls one audit may spend (default
	// audit.DefaultBudget).
	AuditBudget int
	// AuditFloor, when > 0, alerts on quality regressions: an audit
	// measuring quality_ratio below the floor logs at Warn (re-warned
	// once a minute while below, Info on recovery) and publishes a
	// "quality" notify event, mirroring the memory-watermark semantics.
	AuditFloor float64
	// DisableAudit turns the quality auditor off: no background audits,
	// no influtrackd_quality_* gauges, and the deep quality endpoint
	// answers 422.
	DisableAudit bool
	// Flight, when non-nil, is the black-box flight recorder: every
	// significant lifecycle transition (WAL degrade/repair, checkpoint
	// snapshots, restores, subscriber evictions, audit floor crossings,
	// watermark crossings, fault-rule hits, worker stalls) is recorded
	// into its bounded ring, and the diagnostics bundle dumps it. Nil
	// disables recording — every Record site is nil-safe.
	Flight *obs.Flight
	// StallFactor tunes the worker-stall watchdog: a stream whose queue
	// is non-empty but has not finished a batch within
	// StallFactor × its EWMA batch latency (floored at StallMin) is
	// flagged with a worker_stall flight event and a Warn log. Default 8.
	StallFactor float64
	// StallCheckInterval is the watchdog sweep cadence (default 2s).
	// Negative disables the watchdog goroutine entirely.
	StallCheckInterval time.Duration
	// StallMin floors the stall threshold so streams with microsecond
	// batches are not flagged by scheduler jitter (default 1s).
	StallMin time.Duration
	// OnPanic, when non-nil, runs with the recovered value when a worker
	// goroutine panics, before the panic is re-raised — the daemon
	// installs its crash-postmortem writer here. Must not panic itself.
	OnPanic func(v any)
	// NotifyExplainGains spends oracle calls at every snapshot publish to
	// attribute per-seed marginal gains (tdnstream.Explain, up to 2k
	// calls): events then carry true greedy ranks and gains, enabling
	// rank_changed / per-seed gain_changed detection. Off by default —
	// the publish path stays oracle-free and events carry membership
	// changes and solution-value drift only.
	NotifyExplainGains bool
	// Streams are created at construction; more can be added over HTTP
	// (POST /v1/streams) or with AddStream.
	Streams []StreamSpec
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxChunk <= 0 {
		c.MaxChunk = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1
	}
	if c.NotifyHeartbeat <= 0 {
		c.NotifyHeartbeat = 15 * time.Second
	}
	if c.RepairBackoff <= 0 {
		c.RepairBackoff = 100 * time.Millisecond
	}
	if c.RepairBackoffMax <= 0 {
		c.RepairBackoffMax = 5 * time.Second
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	if c.AuditInterval <= 0 {
		c.AuditInterval = 15 * time.Second
	}
	if c.SlowTrace <= 0 {
		c.SlowTrace = 500 * time.Millisecond
	}
	if c.StallFactor <= 0 {
		c.StallFactor = 8
	}
	if c.StallCheckInterval == 0 {
		c.StallCheckInterval = 2 * time.Second
	}
	if c.StallMin <= 0 {
		c.StallMin = time.Second
	}
	return c
}

// logger resolves the structured-log seam.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// fs resolves the filesystem seam: an explicit FS wins, else the fault
// injector doubles as the seam (one -fault-inject knob wires both), else
// the real OS.
func (c Config) fs() fault.FS {
	if c.FS != nil {
		return c.FS
	}
	if c.Fault != nil {
		return c.Fault
	}
	return fault.OS()
}

// clock resolves the time seam for repair backoffs.
func (c Config) clock() fault.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return fault.WallClock()
}

// walFor reports whether a stream logs its ingest chunks: the server
// must have a WAL directory and the stream must not opt out.
func (c Config) walFor(spec StreamSpec) bool {
	return c.WALDir != "" && spec.WAL != WALOff
}
