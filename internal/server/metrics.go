package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"tdnstream"
	"tdnstream/internal/audit"
	"tdnstream/internal/metrics"
	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
	"tdnstream/internal/wal"
)

// streamMetrics are the per-stream counters and gauges exported on
// /metrics. Everything is atomic: the worker writes while handlers read.
type streamMetrics struct {
	ingested      atomic.Uint64 // records accepted into the queue
	rejected      atomic.Uint64 // records refused by backpressure (429)
	malformed     atomic.Uint64 // records refused by decode errors (400)
	restoreReject atomic.Uint64 // records refused because a restore replaced the stream state (409)
	staleDrop     atomic.Uint64 // event-mode records at or before stream time
	failed        atomic.Uint64 // records in batches the tracker rejected (see lastErr)
	superseded    atomic.Uint64 // acknowledged records discarded unprocessed by a restore
	walAppended   atomic.Uint64 // records appended to the write-ahead log before their ack
	walReplayed   atomic.Uint64 // records rebuilt from the log by crash recovery
	walRepairs    atomic.Uint64 // successful background repairs of a degraded log
	processed     atomic.Uint64 // records fed to the tracker
	steps         atomic.Uint64 // tracker steps taken
	chunks        atomic.Uint64 // chunks drained from the queue
	batchNanos    atomic.Uint64 // cumulative worker time processing chunks
	stepsPerSec   metrics.EWMA  // smoothed step throughput
	rowsPerSec    metrics.EWMA  // smoothed record throughput
	batchEWMA     metrics.EWMA  // smoothed per-chunk worker seconds (stall watchdog baseline)

	// Serving-path latency distributions (lock-free log-bucketed
	// histograms), rendered as Prometheus summaries with p50/p99/p999.
	ingestLat    metrics.LatencyHist // POST /v1/ingest wall time, all statuses
	topkLat      metrics.LatencyHist // GET /v1/topk wall time, 304s included
	walCommitLat metrics.LatencyHist // group-commit waits (wal.Commit), per request
	batchLat     metrics.LatencyHist // worker time per drained chunk
}

// checkpointCounters snapshots the stream-logical counters in envelope
// form, with the watermark-consistent Ingested convention: acknowledged
// records are appended to the WAL before they are counted ingested, so
// acked-but-unprocessed records sit past the covered position and
// re-count themselves on replay — the envelope stores ingested as the
// sum of the settled classes instead of the live counter.
func (m *streamMetrics) checkpointCounters() checkpointCounters {
	c := checkpointCounters{
		Processed:    m.processed.Load(),
		StaleDropped: m.staleDrop.Load(),
		Failed:       m.failed.Load(),
		Superseded:   m.superseded.Load(),
		Steps:        m.steps.Load(),
		Chunks:       m.chunks.Load(),
	}
	c.Ingested = c.Processed + c.StaleDropped + c.Failed + c.Superseded
	return c
}

// seed initializes the stream-logical counters from an envelope at
// worker creation (before any goroutine can observe them): a rebooted
// stream continues its counter history instead of restarting at zero.
func (m *streamMetrics) seed(c checkpointCounters) {
	m.ingested.Store(c.Ingested)
	m.processed.Store(c.Processed)
	m.staleDrop.Store(c.StaleDropped)
	m.failed.Store(c.Failed)
	m.superseded.Store(c.Superseded)
	m.steps.Store(c.Steps)
	m.chunks.Store(c.Chunks)
}

// observeChunk records one drained chunk: n records, s steps, d spent.
func (m *streamMetrics) observeChunk(n, s int, d time.Duration) {
	m.processed.Add(uint64(n))
	m.steps.Add(uint64(s))
	m.chunks.Add(1)
	m.batchNanos.Add(uint64(d.Nanoseconds()))
	m.batchLat.Observe(d)
	m.batchEWMA.Observe(d.Seconds())
	if d > 0 {
		sec := d.Seconds()
		m.stepsPerSec.Observe(float64(s) / sec)
		m.rowsPerSec.Observe(float64(n) / sec)
	}
}

// writeMetrics renders the Prometheus text exposition for every stream.
func (s *Server) writeMetrics(w io.Writer) {
	type row struct {
		name string
		w    *worker
	}
	s.mu.RLock()
	rows := make([]row, 0, len(s.streams))
	for name, wk := range s.streams {
		rows = append(rows, row{name, wk})
	}
	s.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP influtrackd_uptime_seconds Seconds since the server was constructed.\n")
	p("# TYPE influtrackd_uptime_seconds gauge\n")
	p("influtrackd_uptime_seconds %g\n", time.Since(s.start).Seconds())
	p("# HELP influtrackd_streams Number of hosted tracker streams.\n")
	p("# TYPE influtrackd_streams gauge\n")
	p("influtrackd_streams %d\n", len(rows))
	p("# HELP influtrackd_http_requests_total HTTP requests served, by status class.\n")
	p("# TYPE influtrackd_http_requests_total counter\n")
	for i, n := range []*atomic.Uint64{&s.req2xx, &s.req4xx, &s.req5xx} {
		p("influtrackd_http_requests_total{class=\"%dxx\"} %d\n", i+2, n.Load())
	}
	info := obs.Build()
	p("# HELP influtrackd_build_info Build metadata; the value is always 1.\n")
	p("# TYPE influtrackd_build_info gauge\n")
	p("influtrackd_build_info{version=%q,go=%q,os=%q,arch=%q,revision=%q",
		info.Version, info.GoVersion, info.OS, info.Arch, info.Revision)
	extraKeys := make([]string, 0, len(s.cfg.BuildLabels))
	for k := range s.cfg.BuildLabels {
		extraKeys = append(extraKeys, k)
	}
	sort.Strings(extraKeys)
	for _, k := range extraKeys {
		p(",%s=%q", k, s.cfg.BuildLabels[k])
	}
	p("} 1\n")

	gauge := func(name, help string) {
		p("# HELP influtrackd_%s %s\n# TYPE influtrackd_%s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		p("# HELP influtrackd_%s %s\n# TYPE influtrackd_%s counter\n", name, help, name)
	}
	// summary renders one latency histogram family as a Prometheus
	// summary: p50/p99/p999 samples per stream plus _sum/_count.
	quantiles := [...]struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.99", 0.99}, {"0.999", 0.999}}
	summaryRow := func(name, stream string, h *metrics.LatencyHist) {
		for _, q := range quantiles {
			p("influtrackd_%s{stream=%q,quantile=%q} %g\n", name, stream, q.label, h.Quantile(q.q).Seconds())
		}
		p("influtrackd_%s_sum{stream=%q} %g\n", name, stream, h.Sum().Seconds())
		p("influtrackd_%s_count{stream=%q} %d\n", name, stream, h.Count())
	}
	summaryHead := func(name, help string) {
		p("# HELP influtrackd_%s %s\n# TYPE influtrackd_%s summary\n", name, help, name)
	}

	counter("ingested_records_total", "Records accepted into the ingest queue.")
	for _, r := range rows {
		p("influtrackd_ingested_records_total{stream=%q} %d\n", r.name, r.w.m.ingested.Load())
	}
	counter("rejected_records_total", "Records refused by backpressure (429).")
	for _, r := range rows {
		p("influtrackd_rejected_records_total{stream=%q} %d\n", r.name, r.w.m.rejected.Load())
	}
	counter("malformed_records_total", "Records refused by decode errors (400).")
	for _, r := range rows {
		p("influtrackd_malformed_records_total{stream=%q} %d\n", r.name, r.w.m.malformed.Load())
	}
	counter("restore_rejected_total", "Records refused because a checkpoint restore replaced the stream state mid-ingest (409).")
	for _, r := range rows {
		p("influtrackd_restore_rejected_total{stream=%q} %d\n", r.name, r.w.m.restoreReject.Load())
	}
	counter("stale_dropped_total", "Event-mode records dropped for arriving at or before stream time.")
	for _, r := range rows {
		p("influtrackd_stale_dropped_total{stream=%q} %d\n", r.name, r.w.m.staleDrop.Load())
	}
	counter("failed_records_total", "Records in batches the tracker rejected (last_error holds the cause).")
	for _, r := range rows {
		p("influtrackd_failed_records_total{stream=%q} %d\n", r.name, r.w.m.failed.Load())
	}
	counter("superseded_records_total", "Acknowledged records discarded unprocessed because a checkpoint restore replaced the state they were queued for.")
	for _, r := range rows {
		p("influtrackd_superseded_records_total{stream=%q} %d\n", r.name, r.w.m.superseded.Load())
	}
	counter("processed_records_total", "Records fed to the tracker.")
	for _, r := range rows {
		p("influtrackd_processed_records_total{stream=%q} %d\n", r.name, r.w.m.processed.Load())
	}
	counter("steps_total", "Tracker steps taken.")
	for _, r := range rows {
		p("influtrackd_steps_total{stream=%q} %d\n", r.name, r.w.m.steps.Load())
	}
	counter("oracle_calls_total", "Influence-function evaluations (the paper's cost metric).")
	for _, r := range rows {
		p("influtrackd_oracle_calls_total{stream=%q} %d\n", r.name, r.w.oracleCalls())
	}
	gauge("queue_depth", "Chunks not yet applied to the tracker: waiting in the ingest queue, plus the chunk the worker is currently processing.")
	for _, r := range rows {
		p("influtrackd_queue_depth{stream=%q} %d\n", r.name, r.w.queueDepth())
	}
	gauge("queue_capacity", "Ingest queue capacity, in chunks.")
	for _, r := range rows {
		p("influtrackd_queue_capacity{stream=%q} %d\n", r.name, cap(r.w.queue))
	}
	now := time.Now()
	gauge("steps_per_sec", "Smoothed tracker step throughput; decays toward zero while the stream is idle (5s half-life).")
	for _, r := range rows {
		p("influtrackd_steps_per_sec{stream=%q} %g\n", r.name, r.w.m.stepsPerSec.ValueAt(now))
	}
	gauge("records_per_sec", "Smoothed record processing throughput; decays toward zero while the stream is idle (5s half-life).")
	for _, r := range rows {
		p("influtrackd_records_per_sec{stream=%q} %g\n", r.name, r.w.m.rowsPerSec.ValueAt(now))
	}
	summaryHead("ingest_request_seconds", "Server-side POST /v1/ingest latency, all statuses.")
	for _, r := range rows {
		summaryRow("ingest_request_seconds", r.name, &r.w.m.ingestLat)
	}
	summaryHead("topk_request_seconds", "Server-side GET /v1/topk latency, 304s included.")
	for _, r := range rows {
		summaryRow("topk_request_seconds", r.name, &r.w.m.topkLat)
	}
	summaryHead("worker_batch_seconds", "Worker time per drained chunk (supersedes the retired batch_latency_seconds point gauge).")
	for _, r := range rows {
		summaryRow("worker_batch_seconds", r.name, &r.w.m.batchLat)
	}
	gauge("topk_value", "Influence spread of the current solution snapshot.")
	for _, r := range rows {
		if snap := r.w.snapshot(); snap != nil {
			p("influtrackd_topk_value{stream=%q} %d\n", r.name, snap.Solution.Value)
		}
	}

	// Engine-introspection surface: the worker-cached tracker reports
	// (refreshed at each snapshot publish unless DisableEngineStats).
	// Rows appear only once a stream has published with a reporting
	// tracker, so a scrape can tell "no report yet" from zeros; the deep
	// breakdown lives on /v1/streams/{name}/stats.
	type engineRow struct {
		name string
		es   *tdnstream.EngineStats
	}
	var engineRows []engineRow
	for _, r := range rows {
		if es := r.w.engineStats.Load(); es != nil {
			engineRows = append(engineRows, engineRow{r.name, es})
		}
	}
	if len(engineRows) > 0 {
		gauge("engine_bytes", "Walked engine memory footprint: graphs, candidate reach sets, histogram instances and oracle scratch, summed bottom-up.")
		for _, r := range engineRows {
			p("influtrackd_engine_bytes{stream=%q} %d\n", r.name, r.es.Bytes)
		}
		gauge("engine_instances", "Live algorithm instances (HistApprox sieves across deadlines; 1 for single-instance trackers).")
		for _, r := range engineRows {
			p("influtrackd_engine_instances{stream=%q} %d\n", r.name, r.es.Instances)
		}
		gauge("engine_nodes", "Nodes alive in the tracker's time-decaying graph state.")
		for _, r := range engineRows {
			p("influtrackd_engine_nodes{stream=%q} %d\n", r.name, r.es.Nodes)
		}
		gauge("engine_edges", "Edges alive in the tracker's time-decaying graph state.")
		for _, r := range engineRows {
			p("influtrackd_engine_edges{stream=%q} %d\n", r.name, r.es.Edges)
		}
		var sharded []engineRow
		for _, r := range engineRows {
			if r.es.ShardSkew > 0 {
				sharded = append(sharded, r)
			}
		}
		if len(sharded) > 0 {
			gauge("shard_skew_ratio", "Partition balance of sharded engines: max records routed to one partition over the mean (1.0 is perfectly balanced).")
			for _, r := range sharded {
				p("influtrackd_shard_skew_ratio{stream=%q} %g\n", r.name, r.es.ShardSkew)
			}
		}
	}

	// Quality-audit surface: the worker-cached report of each stream's
	// most recent audit (background cadence or on-demand via the deep
	// /v1/streams/{name}/quality endpoint). Rows appear only once a
	// stream has been audited, so a scrape can tell "no audit yet" from
	// a genuine ratio of zero; merge-gap rows only for sharded engines.
	type auditRow struct {
		name string
		rep  *audit.Report
	}
	var auditRows []auditRow
	for _, r := range rows {
		if rep := r.w.auditRep.Load(); rep != nil {
			auditRows = append(auditRows, auditRow{r.name, rep})
		}
	}
	if len(auditRows) > 0 {
		gauge("quality_ratio", "Audited approximation quality: exact spread of the served seeds over a budget-capped reference greedy on the same live graph (last audit).")
		for _, r := range auditRows {
			p("influtrackd_quality_ratio{stream=%q} %g\n", r.name, r.rep.QualityRatio)
		}
		gauge("topk_jaccard", "Top-k membership overlap between the last two audits (1 = identical seed sets).")
		for _, r := range auditRows {
			p("influtrackd_topk_jaccard{stream=%q} %g\n", r.name, r.rep.TopkJaccard)
		}
		gauge("kendall_tau", "Kendall-tau rank correlation of the seeds the last two audits share (1 = same order, -1 = reversed).")
		for _, r := range auditRows {
			p("influtrackd_kendall_tau{stream=%q} %g\n", r.name, r.rep.KendallTau)
		}
		gauge("audit_oracle_calls", "Lifetime influence-oracle calls spent by quality audits (the audit budget's account, separate from the tracker's oracle_calls_total).")
		for _, r := range auditRows {
			p("influtrackd_audit_oracle_calls{stream=%q} %d\n", r.name, r.rep.OracleCallsTotal)
		}
		var gapped []auditRow
		for _, r := range auditRows {
			if r.rep.MergeGap != nil {
				gapped = append(gapped, r)
			}
		}
		if len(gapped) > 0 {
			gauge("merge_gap_ratio", "Sharded engines: union-graph rescore of the merged seed set over the summed per-shard merge score (1.0 = exact; <1 double-counted overlap, >1 unseen cross-partition reach).")
			for _, r := range gapped {
				p("influtrackd_merge_gap_ratio{stream=%q} %g\n", r.name, r.rep.MergeGap.Ratio)
			}
		}
	}

	// Write-ahead-log surface. The per-log rows cover every stream with
	// a log: a wal=off stream under WALDir keeps one for its snapshots,
	// and a failed snapshot degrades it like an ingest fault. The chunk
	// rows cover only streams that log their chunks, so a scrape can
	// tell "chunks not logged" from "logged, zero traffic". One Stats
	// snapshot per stream: the log gauges come from the same instant
	// and the append path's mutex is taken once, not four times.
	type walRow struct {
		name string
		w    *worker
		st   wal.Stats
	}
	var walRows, chunkRows []walRow
	for _, r := range rows {
		if r.w.wlog == nil {
			continue
		}
		row := walRow{r.name, r.w, r.w.wlog.Stats()}
		walRows = append(walRows, row)
		if r.w.logChunks {
			chunkRows = append(chunkRows, row)
		}
	}
	if len(walRows) > 0 {
		counter("wal_fsyncs_total", "fsync(2) calls issued by the write-ahead log (group commit batches concurrent ingests into one).")
		for _, r := range walRows {
			p("influtrackd_wal_fsyncs_total{stream=%q} %d\n", r.name, r.st.Fsyncs)
		}
		counter("wal_fsync_seconds_total", "Wall time inside WAL fsync batches — pure device time; against wal_commit_seconds it separates a slow disk from a deep commit queue.")
		for _, r := range walRows {
			p("influtrackd_wal_fsync_seconds_total{stream=%q} %g\n", r.name, float64(r.st.FsyncNanos)/1e9)
		}
		gauge("wal_bytes", "Write-ahead-log on-disk footprint across live segments; drops when checkpoints truncate covered history.")
		for _, r := range walRows {
			p("influtrackd_wal_bytes{stream=%q} %d\n", r.name, r.st.Bytes)
		}
		gauge("wal_segments", "Live write-ahead-log segment files.")
		for _, r := range walRows {
			p("influtrackd_wal_segments{stream=%q} %d\n", r.name, r.st.Segments)
		}
		gauge("wal_degraded", "1 while the stream's write-ahead log is faulted and under background repair (ingest answers 503), 0 when healthy.")
		for _, r := range walRows {
			v := 0
			if r.w.degraded.Load() {
				v = 1
			}
			p("influtrackd_wal_degraded{stream=%q} %d\n", r.name, v)
		}
		counter("wal_repairs_total", "Degraded-log background repairs that succeeded (the log rotated past the fault and proved an fsync).")
		for _, r := range walRows {
			p("influtrackd_wal_repairs_total{stream=%q} %d\n", r.name, r.w.m.walRepairs.Load())
		}
	}
	if len(chunkRows) > 0 {
		counter("wal_appended_records_total", "Records appended to the write-ahead log before their ingest ack.")
		for _, r := range chunkRows {
			p("influtrackd_wal_appended_records_total{stream=%q} %d\n", r.name, r.w.m.walAppended.Load())
		}
		counter("wal_replayed_records_total", "Records rebuilt from the write-ahead log by crash recovery at startup.")
		for _, r := range chunkRows {
			p("influtrackd_wal_replayed_records_total{stream=%q} %d\n", r.name, r.w.m.walReplayed.Load())
		}
		gauge("wal_applied_segment", "Segment index of the apply watermark: the log position through which acknowledged chunks reached the tracker.")
		for _, r := range chunkRows {
			p("influtrackd_wal_applied_segment{stream=%q} %d\n", r.name, r.w.walAppliedSeg.Load())
		}
		gauge("wal_applied_offset", "Byte offset within the watermark segment; with wal_applied_segment it bounds replay after a crash.")
		for _, r := range chunkRows {
			p("influtrackd_wal_applied_offset{stream=%q} %d\n", r.name, r.w.walAppliedOff.Load())
		}
		summaryHead("wal_commit_seconds", "Group-commit wait per ingest request (wal.Commit — the fsync the ack waits for under -wal-fsync always).")
		for _, r := range chunkRows {
			summaryRow("wal_commit_seconds", r.name, &r.w.m.walCommitLat)
		}
	}

	// Push-subsystem surface: one Stats snapshot per stream.
	stats := make([]notifyStats, len(rows))
	for i, r := range rows {
		stats[i] = notifyStats{name: r.name, s: s.hub.Stats(r.name)}
	}
	gauge("notify_subscribers", "Live event-feed subscribers (SSE + WebSocket).")
	for _, st := range stats {
		p("influtrackd_notify_subscribers{stream=%q} %d\n", st.name, st.s.Subscribers)
	}
	counter("notify_events_total", "Top-k change events published (entered/left/rank_changed/gain_changed/keyframe).")
	for _, st := range stats {
		p("influtrackd_notify_events_total{stream=%q} %d\n", st.name, st.s.Events)
	}
	counter("notify_dropped_subscribers_total", "Subscribers evicted for falling behind their bounded event queue.")
	for _, st := range stats {
		p("influtrackd_notify_dropped_subscribers_total{stream=%q} %d\n", st.name, st.s.Dropped)
	}
	gauge("notify_events_per_sec", "Smoothed change-event publish rate; decays toward zero while the stream is idle (5s half-life).")
	for _, st := range stats {
		p("influtrackd_notify_events_per_sec{stream=%q} %g\n", st.name, st.s.EventsPerSec)
	}
	gauge("notify_seq", "Latest stamped event sequence number (the /v1/topk ETag token).")
	for _, st := range stats {
		p("influtrackd_notify_seq{stream=%q} %d\n", st.name, st.s.Seq)
	}
	summaryHead("notify_publish_seconds", "Notify hub time per snapshot publish: diff + journal + fan-out to every subscriber queue.")
	for _, r := range rows {
		if h := s.hub.PublishLatency(r.name); h != nil {
			summaryRow("notify_publish_seconds", r.name, h)
		}
	}

	// Per-stage lifecycle summaries (absent with tracing disabled): the
	// aggregate behind the /v1/streams/{name}/trace drill-down. Stages
	// with no observations yet are skipped, not rendered as zeros.
	var traced []row
	for _, r := range rows {
		if r.w.rec != nil {
			traced = append(traced, r)
		}
	}
	if len(traced) > 0 {
		p("# HELP influtrackd_stage_seconds Per-stage record-lifecycle latency, decode through notify fan-out.\n")
		p("# TYPE influtrackd_stage_seconds summary\n")
		for _, r := range traced {
			for _, st := range obs.Stages() {
				h := r.w.rec.StageHist(st)
				if h.Count() == 0 {
					continue
				}
				for _, q := range quantiles {
					p("influtrackd_stage_seconds{stream=%q,stage=%q,quantile=%q} %g\n",
						r.name, st.String(), q.label, h.Quantile(q.q).Seconds())
				}
				p("influtrackd_stage_seconds_sum{stream=%q,stage=%q} %g\n", r.name, st.String(), h.Sum().Seconds())
				p("influtrackd_stage_seconds_count{stream=%q,stage=%q} %d\n", r.name, st.String(), h.Count())
			}
		}
		counter("slow_requests_total", "Finished requests at or above the slow-trace threshold (each is logged with its per-stage breakdown).")
		for _, r := range traced {
			p("influtrackd_slow_requests_total{stream=%q} %d\n", r.name, r.w.rec.SlowCount())
		}
	}

	// Composite health surface: the one number load balancers gate on,
	// plus its per-component breakdown (the same numbers /healthz
	// reports as JSON).
	score, components := s.healthComponents()
	gauge("health_score", "Composite readiness in [0,1]: the minimum of the per-component scores (wal, queue_headroom, audit_floor, replay_debt, degraded_streams).")
	p("influtrackd_health_score %g\n", score)
	gauge("health_component", "Per-component readiness in [0,1] behind the composite health score.")
	for _, name := range healthComponentOrder {
		p("influtrackd_health_component{component=%q} %g\n", name, components[name])
	}

	if f := s.cfg.Flight; f != nil {
		counter("flight_events_total", "Lifecycle events recorded by the flight recorder (including ones since evicted from the bounded ring).")
		p("influtrackd_flight_events_total %d\n", f.Recorded())
		counter("flight_evicted_total", "Flight-recorder events overwritten by ring wraparound.")
		p("influtrackd_flight_evicted_total %d\n", f.Evicted())
	}

	obs.WriteRuntimeMetrics(w)
}

// notifyStats pairs a stream name with its hub counters for the metrics
// rendering loops.
type notifyStats struct {
	name string
	s    notify.StreamStats
}
