// Package tdnstream tracks influential nodes in time-decaying dynamic
// interaction networks, reproducing the streaming algorithms of
//
//	Zhao, Shang, Wang, Lui, Zhang:
//	"Tracking Influential Nodes in Time-Decaying Dynamic Interaction
//	Networks", ICDE 2019 (arXiv:1810.07917).
//
// # Model
//
// Node interactions ⟨u, v, τ⟩ ("u influenced v at time τ") arrive as a
// stream. The time-decaying dynamic interaction network (TDN) model
// assigns each interaction a lifetime; the interaction participates in
// the influence graph until the lifetime ticks down to zero, so outdated
// evidence fades smoothly instead of falling off a sliding-window cliff.
// The influence spread of a seed set S at time t is the number of nodes
// reachable from S in the current graph — a monotone submodular
// function, maximized under a cardinality budget k.
//
// # Trackers
//
// Three streaming algorithms implement the Tracker interface:
//
//   - NewSieveADN — addition-only networks (no decay), (1/2−ε)-approximate.
//   - NewBasicReduction — general TDNs via L staggered sieves, (1/2−ε).
//   - NewHistApprox — general TDNs via a smooth histogram of sieves,
//     (1/3−ε) at a fraction of the cost; NewHistApproxRefined restores
//     (1/2−ε) with an exact-head query refinement.
//
// Baselines from the paper's evaluation are available for comparison:
// NewGreedy (lazy greedy re-run per query), NewRandom, and the
// reverse-influence-sampling family NewDIM, NewIMM, NewTIMPlus.
//
// # Performance
//
// The hot paths run on dense, index-addressed containers: node ids are
// dense uint32s (internal/ids), reach sets are growable bitsets with
// word-copy cloning, the addition-only graph stores paged slice-backed
// adjacency with copy-on-write cloning (so HISTAPPROX instance creation
// costs O(nodes/page) instead of O(edges)), and the influence oracle
// reuses generation-stamped scratch so steady-state BFS evaluations do
// not allocate. A sieve instance gets the singleton spreads f({v}) of a
// batch's affected nodes from one iterative Tarjan pass over the
// subgraph they induce, not one BFS per node: the nodes of a strongly
// connected component share f, a component whose out-edges all enter
// one other component adds its size to that one's spread, and the reach
// set of the largest component cuts short the BFS of every component
// that reaches it. `go test -run '^$' -bench . ./internal/influence
// ./internal/core` runs the micro-benchmarks.
//
// # Serving
//
// cmd/influtrackd turns the library into an online service: it hosts
// named tracker streams behind an HTTP API (internal/server). Producers
// POST interactions as NDJSON or CSV bodies to /v1/ingest; each stream
// routes them through a bounded queue into a dedicated worker goroutine
// that drives a Pipeline in batches, and GET /v1/topk answers from an
// atomically-swapped solution snapshot, so queries never block — and are
// never blocked by — ingestion. A full queue surfaces as 429 +
// Retry-After (explicit backpressure instead of unbounded buffering),
// /healthz and /metrics expose liveness and Prometheus counters (queue
// depth, batch latency, steps/sec, oracle calls), admin endpoints
// checkpoint and restore streams through the same gob persistence as
// SaveTracker/LoadTracker, and SIGTERM drains every queue before exit.
// TrackerSpec and LifetimeSpec name algorithms and decay policies so the
// daemon, the batch CLI and embedders build trackers the same way. See
// examples/serving for an in-process walkthrough.
//
// # Sharding
//
// A single tracker is inherently serial — one goroutine owns the graph
// — and on new-pair-heavy streams it becomes the bottleneck long before
// HTTP or decoding do. Setting TrackerSpec.Shards ≥ 2 swaps in the
// partitioned engine (internal/shard): each batch is hash-partitioned
// by source node across that many independent tracker instances whose
// Steps run concurrently, and queries greedily merge the per-shard
// candidate top-k sets into a global size-k solution, scoring the
// candidate union against the per-shard oracles (the sum of partition
// reach estimates — the candidate-union composition of Yang et al.,
// arXiv:1602.04490 and arXiv:1803.01499). Partitioning by source keeps
// every node's full out-neighborhood inside one shard, so influential
// sources are still found; only multi-hop reachability truncates at
// shard boundaries, and the quality-equivalence tests pin the sharded
// top-k within a fixed tolerance of the single-tracker answer. The
// engine implements Tracker, so pipelines, the serving layer
// (StreamSpec carries the shard count through checkpoints) and the CLIs
// (-shards on influtrack and influtrackd) drive it unchanged; sharded
// runs are deterministic for a fixed shard count, and SaveTracker
// checkpoints carry every partition's state. `go test -run '^$' -bench
// 'IngestHTTPSieveHiggs' ./internal/server` measures the payoff on the
// tracker-bound twitter-higgs workload at 1, 2, 4 and 8 shards.
//
// # Notifications
//
// Tracking means the answer *changes* — so the serving layer pushes the
// changes instead of making every dashboard poll and diff snapshots. A
// snapshot differ (internal/notify) compares consecutive published
// solutions per stream and emits typed events — entered, left,
// rank_changed, gain_changed (epsilon-thresholded, so churn among tied
// gains is suppressed) and periodic full-top-k keyframes — each stamped
// with a monotonically increasing per-stream sequence number. A hub
// journals the most recent events in a bounded ring and fans them out to
// GET /v1/streams/{name}/events subscribers over Server-Sent Events (or
// a WebSocket, on upgrade) through bounded per-subscriber queues: a slow
// consumer is dropped and resyncs on reconnect, never waited for, so the
// worker's wait-free snapshot swap stays wait-free. Disconnected
// subscribers resume with the SSE-standard Last-Event-ID header (or
// ?since=<seq>) and receive the journaled continuation — or a keyframe
// resync once the journal has moved past them. The same sequence number
// is the ETag of /v1/topk (If-None-Match → 304), so pollers and
// subscribers share one consistency token; checkpoints persist the
// counter, so a restored daemon never replays sequence numbers a
// previous incarnation already handed out. Streams can carry a bearer
// token gating ingest, admin and the events feed (constant-time
// compare, redacted from listings and checkpoint envelopes).
// `go test -run '^$' -bench Fanout ./internal/notify` measures
// publish→deliver latency at 1, 100 and 1000 subscribers.
//
// # Durability
//
// A tracker's state is a function of its interaction stream's prefix,
// so each stream keeps one write-ahead log (internal/wal; influtrackd
// -wal-dir) holding everything durable about it. Every ingest chunk is
// appended — CRC32C-framed, in segment files, with its label-dictionary
// delta — *before* the handler returns 200, so 200 OK means the record
// survives a process kill. A checkpoint (SIGTERM, -checkpoint-interval)
// appends a snapshot frame: the stream state plus the log position it
// covers, which is the worker's applied position, since chunks keep
// arriving while the state serializes. A restarting daemon hosts every
// stream whose log holds a snapshot, loads the newest one and replays
// the chunks from its covered position on — the precise pre-crash
// tracker state, counters included; a log without one replays from
// genesis. In-place admin restores are snapshot frames too, so even
// restore-then-ingest-then-crash recovers exactly, and a wal=off
// stream's log holds nothing but snapshots.
//
// The fsync policy (-wal-fsync) prices the remaining window. "always":
// each ack waits for an fsync — concurrent requests share one
// (group commit) — and survives machine-wide power loss. "interval"
// (default): appends issue their write(2) immediately (no user-space
// buffering, so process kills lose nothing) and a background loop
// fsyncs every 100ms — power loss can cost up to one interval.
// "none": never fsync on ingest; still exact under kill -9, fastest,
// weakest under power loss. A checkpoint fsyncs its snapshot whatever
// the policy and only then truncates the log segments it covers — a
// failed snapshot never advances the truncation point — so the log's
// footprint stays near one checkpoint interval of traffic; streams idle
// since their newest snapshot are skipped. `go test -run '^$' -bench
// 'IngestHTTPSieve(WAL.*)?$' ./internal/server` measures the ingest cost
// of each fsync policy against the WAL-free path.
//
// # Resilience
//
// A full or dying disk must not take a stream down. Every WAL file
// operation goes through a pluggable filesystem/clock
// seam (internal/fault): the passthrough fault.OS in production, and a
// rule-driven Injector in tests and chaos drills (influtrackd
// -fault-inject plus the /v1/admin/fault endpoint) that injects ENOSPC,
// EIO on fsync, fsync latency, torn writes and crash-at-syscall points
// against the live process.
//
// When a WAL append, group commit or checkpoint snapshot fails, the
// stream degrades instead
// of dying: ingest answers 503 + Retry-After while /v1/topk,
// /v1/explain and the events feed keep serving the last good state, and
// a background repair loop (exponential backoff) rotates the log past
// the damage — closing the poisoned file handle without ever retrying
// its fsync (a failed fsync proves nothing about pages the kernel
// already dropped), truncating any torn tail, and fencing
// ack-ambiguous commit tokens so no record is acknowledged on unproven
// durability. Healing is automatic and observable end to end: the
// transition shows in /healthz, in /v1/streams (state,
// degraded_seconds, wal_repairs), on /metrics (influtrackd_wal_degraded,
// _wal_repairs_total) and as stream_status events on the push feed, so
// a dashboard sees degraded → healthy the moment each happens. A failed
// checkpoint is retried by the next one, and stream creation builds
// workers outside the server's stream lock, so re-hosting a crashed
// stream (a long WAL replay) never stalls the others.
//
// cmd/influtrack-loadgen is the chaos/load harness: mixed
// ingest/query/subscriber traffic with a zipfian node mix and
// p50/p99/p999 latency reporting, plus a -chaos schedule (disk-full
// windows, fsync latency, EIO phases, kill -9 mid-traffic with restart
// and WAL-replay re-host) whose final ledger check is the durability
// contract stated operationally: every 200-acked record accounted for
// after recovery, every 503 carrying Retry-After, every stream healthy
// at the end. `bash benchmark/run.sh --workload serve-brightkite
// --seed 1 --seconds 10 --trace 0` measures end-to-end serving under
// -wal-fsync always.
//
// # Observability
//
// The daemon explains its own latency. Every ingest request is traced
// through the record lifecycle — decode → intern → WAL append → queue
// wait → tracker step → WAL group commit → snapshot publish → notify
// fan-out — by a lock-free span recorder (internal/obs) with no
// external dependencies: per-stage p50/p99/p999 summaries on /metrics
// (influtrackd_stage_seconds{stream,stage}), and a per-stream ring of
// recent traces served by GET /v1/streams/{name}/trace, slowest first,
// each with its stage breakdown in milliseconds. On a single-chunk
// request the stages tile the wall time, so the endpoint answers "where
// did this request's latency go" directly; requests over a threshold
// (-trace-slow, default 500ms) are additionally logged with their
// breakdown. -trace=false removes the recorder entirely.
//
// The serving paths carry their own summaries independent of tracing:
// influtrackd_ingest_request_seconds, _topk_request_seconds,
// _wal_commit_seconds (the group-commit fsync wait an ack blocks on),
// _worker_batch_seconds and _notify_publish_seconds, all per stream
// with p50/p99/p999 plus _sum/_count. influtrackd_build_info carries
// version/go/os/arch/revision labels (set the version at link time with
// -ldflags "-X tdnstream/internal/obs.Version=v1.2.3"; -version prints
// it), and influtrackd_go_* export runtime health (goroutines, heap, GC
// pauses). Logs are structured log/slog records, text or JSON
// (-log-format), with stream/status/elapsed attributes on failures and
// state transitions. -debug-addr starts a separate listener with
// /debug/pprof/* and a /metrics mirror, so CPU and heap profiles are
// taken from an operator port that never serves clients.
// cmd/influtrack-loadgen scrapes the daemon's summaries into its
// report's "server" section, putting client-observed and server-side
// p99 side by side. See examples/serving/README.md for the monitoring
// walkthrough.
//
// # Engine introspection
//
// Latency tells you where time goes; introspection tells you where
// memory and algorithmic effort go. Every tracker implements an
// optional EngineStats hook (discovered by type assertion, like the
// clock and live-graph hooks; EngineStatsOf is the package-level
// accessor) that walks its actual backing structures — bitset words,
// adjacency pages, candidate sets, oracle scratch — and reports a
// bottom-up byte account alongside the algorithm's internals: live
// sieve instances and per-instance breakdowns (HISTAPPROX's histogram,
// with copy-on-write pages shared inside a clone family counted once),
// ε-reduction kills, threshold counts and the (1+ε)^i exponent window,
// candidate-set high-water marks, expiry-slot counts, RR-sketch counts
// for the RIS family, and per-shard record counts with a max/mean skew
// ratio for the partitioned engine. The walk is validated against
// runtime.MemStats heap growth (within 30% in the accountant tests), so
// the numbers are capacity-planning grade, not vibes.
//
// The serving layer surfaces it three ways: GET /v1/streams/{name}/stats
// returns the full deep report as JSON (collected on the worker
// goroutine, token-gated like explain); /metrics carries cheap cached
// gauges — influtrackd_engine_bytes, _engine_instances, _engine_nodes,
// _engine_edges per stream, plus _shard_skew_ratio on sharded streams
// and _wal_applied_segment/_wal_applied_offset marking the WAL position
// last applied to tracker state (also in /v1/streams as "wal_applied";
// the gap to the newest segment is replay debt) — refreshed on snapshot
// publish and disabled with -engine-stats=false; and -mem-watermark N
// logs a Warn when a stream's footprint crosses N bytes (re-warned
// once a minute while above, Info on recovery). influtrack-loadgen
// closes the loop with -slo "ingest_p99=50ms,query_p99=10ms,
// lost_acked=0": budgets asserted against the measured report, any
// breach exiting non-zero, so capacity tests and CI gates are one flag.
// The retired influtrackd_batch_latency_seconds point gauge is
// superseded by the worker_batch_seconds summary.
//
// # Quality auditing
//
// Latency and memory gauges can all be green while the answers quietly
// rot — a decay bug, a skewed shard routing, or a threshold regression
// degrades the top-k without touching a single latency percentile. The
// online auditor (internal/audit) closes that gap: on a per-stream
// cadence (-audit-interval, default 15s; count-based via AuditEvery in
// the server config; 0 disables) the serving worker rescores its
// published solution exactly on the tracker's live graph — the served
// seeds' true spread against a budget-capped CELF reference greedy
// (-audit-budget oracle calls, default 4096, spent and accounted like
// the paper costs everything) — yielding a quality ratio that tracks
// the SieveADN/HistApprox (1/2−ε) guarantee in production. Each audit
// also measures top-k stability against the previous one (Jaccard
// membership overlap, Kendall-tau rank correlation over the Explain
// order, and the value drift of the old seed set attributable to pure
// decay), and on sharded streams the cross-partition merge gap: the
// CELF merge's summed-per-shard score versus a union-graph rescore of
// the same seeds — 1.0 means the boundary-blind merge score was exact,
// below 1 it double-counted overlap between partitions, above 1 it
// missed cross-partition reach.
//
// Surfaces: GET /v1/streams/{name}/quality runs a fresh audit on the
// worker goroutine (token-gated like explain and stats) and returns the
// deep report plus a history ring; /metrics carries the cached gauges
// influtrackd_quality_ratio, _topk_jaccard, _kendall_tau,
// _audit_oracle_calls and — sharded only — _merge_gap_ratio.
// -audit-floor F turns the ratio into an alert: crossings below F log a
// Warn (re-warned once a minute while below, Info on recovery,
// mirroring -mem-watermark) and publish "quality" events on the push
// feed with the measured ratio and floor. Audits are suppressed while a
// stream replays its WAL or is degraded. influtrack-loadgen scrapes the
// gauges into its report's "quality" section and gates on them with
// -slo quality_ratio_min=0.8, so answer quality is a CI objective next
// to latency and loss.
//
// # Incident forensics
//
// Metrics say that something went wrong; the flight recorder says what
// happened, in order. internal/obs carries a black-box ring
// (-flight-recorder, default on; -flight-ring bounds it, default 1024
// events) into which every significant lifecycle transition is recorded
// as a typed, monotonically-sequenced event with stream/cause/errno
// detail: WAL degrade and repair (the repair event's errno matches the
// degrade's — the pairing chaos drills assert), rotation, truncation
// and commit-token fencing, checkpoint snapshots, restores, WAL replay
// completion, notify-hub
// slow-subscriber evictions (with queue occupancy and sequence lag),
// audit-floor and memory-watermark crossings and recoveries, injected
// fault-rule hits, worker stalls, and recovered panics. A tee
// slog.Handler mirrors every Warn+ log record into the same ring, so
// anything instrumented only via logging still lands in the black box.
// The stall watchdog adds active detection: a stream whose queue holds
// work but whose worker has not finished a batch within 8× its EWMA
// batch latency (floored at 1s) is flagged with a worker_stall event
// and a Warn — the signature of a wedged tracker step.
//
// GET /v1/admin/debug/bundle (debug listener only, never the public
// port) streams one tar.gz with everything an incident writeup needs:
// the flight dump, a /metrics snapshot, the health breakdown, the
// redacted config (stream tokens are unrepresentable in a bundle),
// per-stream info/engine-stats/quality/traces from cached state (a
// wedged worker cannot block its own postmortem), goroutine and heap
// profiles (?cpu=15s adds a CPU profile), and the WAL directory
// listing. -postmortem-dir makes the daemon write the same bundle on
// any worker or HTTP-path panic (then re-panic) and on SIGQUIT.
//
// /healthz rolls per-component readiness — wal, queue_headroom,
// audit_floor, replay_debt, degraded_streams, each in [0,1] — into a
// composite min() score, exported as influtrackd_health_score (with
// per-component influtrackd_health_component gauges) and returned
// machine-readably in the /healthz JSON, so one threshold drives load
// balancers while the breakdown names the exhausted budget.
// influtrack-loadgen's soak mode (-report-interval) closes the loop for
// long runs: per-window latency SLO verdicts with fail-fast on the
// first breached window, and -subscriber-churn cycles SSE
// connect/resume/disconnect to keep the notify paths honest under
// membership turnover.
//
// # Quick start
//
//	assign := tdnstream.GeometricLifetime(0.001, 10_000, 42)
//	pipe := tdnstream.NewPipeline(tdnstream.NewHistApprox(10, 0.1, 10_000), assign)
//	interactions, _ := tdnstream.Dataset("brightkite", 5000)
//	_ = pipe.Run(interactions, func(t int64) error {
//		sol := pipe.Solution()
//		fmt.Println(t, sol.Value, sol.Seeds)
//		return nil
//	})
//
// See examples/ for runnable scenarios and EXPERIMENTS.md for the full
// reproduction of the paper's tables and figures.
package tdnstream
