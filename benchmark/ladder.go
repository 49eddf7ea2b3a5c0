package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"tdnstream"
	"tdnstream/internal/audit"
	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
	"tdnstream/internal/influence"
	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
	"tdnstream/internal/server"
	"tdnstream/internal/stream"
	"tdnstream/internal/wal"
)

const (
	// rungSample is how many calls the influence rung times per entry
	// point.
	rungSample = 64
	// walRungBatches caps the write-ahead-log rung: every batch costs a
	// disk flush under fsync always, and a few thousand give steady
	// percentiles.
	walRungBatches = 2000
	// wholeReps repeats the two whole-structure calls, the stats walk and
	// the graph clone, for a median.
	wholeReps = 5
	// auditInterval is influtrackd's default -audit-interval.
	auditInterval = 15 * time.Second
)

// ladder reports the per-layer metrics of a traced run, in the order
// BENCHMARK.json lists them. The core rung already ran (ref); the others
// push the same acknowledged batches through each layer's public entry
// point in-process. Adjacent rungs differ by one layer, so the gap
// between them is that layer's cost: core (the tracker pipeline), then
// server (handler, queue, worker and write-ahead log, with no sockets),
// then the spawned daemon over loopback.
func ladder(rep *report, tl *tally, w workload, spec server.StreamSpec, in *input, e2e *e2eRun, ref *coreRun, sendFor time.Duration, tr *tracer, runDir, logPrefix string) error {
	sub := in.prefix(e2e.loop.batches)
	coreRPS := float64(ref.records) / ref.elapsed.Seconds()
	rep.add("core.rps", "rec/s", coreRPS)
	steps := scaled(ref.steps, time.Microsecond)
	rep.addQuantile("core.step_p50_us", "us", steps, 0.5)
	rep.addQuantile("core.step_p90_us", "us", steps, 0.9)
	rep.addQuantile("core.solution_us", "us", scaled(ref.solution, time.Microsecond), 0.5)
	rep.add("core.oracle_calls_per_rec", "count", float64(ref.calls)/float64(ref.records))
	rep.add("core.allocs_per_rec", "count", float64(ref.mallocs)/float64(ref.records))
	var stats tdnstream.EngineStats
	walks := make([]time.Duration, wholeReps)
	for i := range walks {
		walks[i] = timeCall(tr, "core.stats_walk", -1, -1, func() { stats, _ = tdnstream.EngineStatsOf(ref.tracker) })
	}
	rep.add("core.engine_mb", "MiB", float64(stats.Bytes)/(1<<20))
	rep.addQuantile("core.stats_walk_us", "us", scaled(walks, time.Microsecond), 0.5)

	g := liveGraph(ref.tracker)
	if g == nil {
		return errors.New("the tracker exposes no live graph")
	}
	influenceRung(rep, g, ref.final().Seeds, sub.batches, tr)
	if err := graphRung(rep, g, spec, sub.batches, tr); err != nil {
		return err
	}
	if err := decodeRung(rep, sub.bodies, tr); err != nil {
		return err
	}
	if err := walRung(rep, filepath.Join(runDir, "wal-rung"), spec, sub.batches, in.dict, tr); err != nil {
		return err
	}
	notifyRung(rep, ref.answers, sub.batches, in.dict, tr)
	if err := auditRung(rep, ref.tracker, spec, tr); err != nil {
		return err
	}

	// The server rung runs twice: with the daemon's default tracing and
	// with Config.DisableTracing. The rate gap is the tracing overhead,
	// measured where serving rather than the tracker sets the pace.
	var runs [2]loopResult
	for i, layer := range []string{"server", "server_untraced"} {
		res, err := serverRung(spec, w, sub, sendFor, filepath.Join(runDir, layer+"-wal"),
			logPrefix+"-"+layer+".log", i == 1, tr, layer)
		if err != nil {
			return err
		}
		tl.addLoop(res)
		problems, _ := checkAnswer(res.final, res.records, ref.answerAfter(res.batches), in.dict)
		tl.addCheck(layer+" answer", problems)
		runs[i] = res
	}
	serverRPS := float64(runs[0].records) / runs[0].elapsed.Seconds()
	untracedRPS := float64(runs[1].records) / runs[1].elapsed.Seconds()
	rep.add("server.rps", "rec/s", serverRPS)
	ingest := scaled(runs[0].ack, time.Microsecond)
	rep.addQuantile("server.ingest_p50_us", "us", ingest, 0.5)
	rep.addQuantile("server.ingest_p90_us", "us", ingest, 0.9)
	topk := scaled(runs[0].query, time.Microsecond)
	rep.addQuantile("server.topk_p50_us", "us", topk, 0.5)
	rep.addQuantile("server.topk_p90_us", "us", topk, 0.9)
	rep.add("server.self_us_per_rec", "us", 1e6/serverRPS-1e6/coreRPS)
	rep.add("obs.trace_overhead_pct", "%", (untracedRPS/serverRPS-1)*100)
	e2eRPS := float64(e2e.loop.records) / e2e.loop.elapsed.Seconds()
	rep.add("net.self_us_per_rec", "us", 1e6/e2eRPS-1e6/serverRPS)
	rep.add("e2e.traced_rps", "rec/s", e2eRPS)
	return nil
}

// influenceRung times the oracle's entry points on the final live graph:
// Affected of each of the latest batches' source sets, and Spread and
// MarginalGain (against the final seeds' reach set) of those sources.
func influenceRung(rep *report, g influence.Graph, seeds []ids.NodeID, batches [][]stream.Interaction, tr *tracer) {
	o := influence.New(g, nil)
	first := max(0, len(batches)-rungSample)
	var sample []ids.NodeID
	inSample := make(map[ids.NodeID]bool)
	affected := make([]time.Duration, 0, len(batches)-first)
	for i := first; i < len(batches); i++ {
		var srcs []ids.NodeID
		inBatch := make(map[ids.NodeID]bool)
		for _, x := range batches[i] {
			if !inBatch[x.Src] {
				inBatch[x.Src] = true
				srcs = append(srcs, x.Src)
			}
			if !inSample[x.Src] && len(sample) < rungSample {
				inSample[x.Src] = true
				sample = append(sample, x.Src)
			}
		}
		affected = append(affected, timeCall(tr, "influence.affected", -1, i, func() { o.Affected(srcs) }))
	}
	reach := influence.NewReachSet()
	o.FillReachSet(reach, seeds...)
	spread := make([]time.Duration, len(sample))
	gain := make([]time.Duration, len(sample))
	for i, v := range sample {
		spread[i] = timeCall(tr, "influence.spread", -1, -1, func() { o.Spread(v) })
		gain[i] = timeCall(tr, "influence.marginal_gain", -1, -1, func() { o.MarginalGain(reach, v, false) })
	}
	rep.addQuantile("influence.spread_us", "us", scaled(spread, time.Microsecond), 0.5)
	rep.addQuantile("influence.affected_us", "us", scaled(affected, time.Microsecond), 0.5)
	rep.addQuantile("influence.marginal_gain_us", "us", scaled(gain, time.Microsecond), 0.5)
}

// graphRung times ADN.Clone of the final live graph (copied into an ADN
// when the tracker keeps a TDN or a sharded union) and TDN
// AdvanceTo+Add over the input with the spec's lifetimes.
func graphRung(rep *report, g influence.Graph, spec server.StreamSpec, batches [][]stream.Interaction, tr *tracer) error {
	adn, ok := g.(*graph.ADN)
	if !ok {
		adn = graph.NewADN()
		for u := 0; u < g.NodeCap(); u++ {
			src := ids.NodeID(u)
			g.OutNeighbors(src, func(v ids.NodeID) { adn.AddEdge(src, v) })
		}
	}
	clones := make([]time.Duration, wholeReps)
	for i := range clones {
		clones[i] = timeCall(tr, "graph.clone", -1, -1, func() { adn.Clone() })
	}
	rep.addQuantile("graph.clone_us", "us", scaled(clones, time.Microsecond), 0.5)

	// Lifetimes are drawn up front so that the clock reads only the TDN.
	assign, err := spec.Lifetime.New()
	if err != nil {
		return err
	}
	lives := make([][]int, len(batches))
	for i, b := range batches {
		lives[i] = make([]int, len(b))
		for j, x := range b {
			lives[i][j] = assign.Assign(x)
		}
	}
	tdn := graph.NewTDN(0)
	var took time.Duration
	records := 0
	for i, b := range batches {
		took += timeCall(tr, "graph.tdn_add", -1, i, func() {
			for j, x := range b {
				if err == nil {
					err = tdn.AdvanceTo(x.T)
				}
				if err == nil {
					err = tdn.Add(stream.Edge{Src: x.Src, Dst: x.Dst, T: x.T, Lifetime: lives[i][j]})
				}
			}
		})
		if err != nil {
			return fmt.Errorf("graph rung, batch %d: %w", i, err)
		}
		records += len(b)
	}
	rep.add("graph.tdn_add_ns", "ns", float64(took.Nanoseconds())/float64(records))
	return nil
}

// decodeRung decodes every request body with the daemon's NDJSON reader
// and interns its labels, as the ingest handler does before enqueueing.
func decodeRung(rep *report, bodies [][]byte, tr *tracer) error {
	dict := ids.NewDict()
	records := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, body := range bodies {
		id := tr.begin("stream.decode", -1, i)
		rr := stream.NewNDJSONReader(bytes.NewReader(body))
		for {
			src, dst, _, err := rr.Read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("decode rung, batch %d: %w", i, err)
			}
			dict.ID(src)
			dict.ID(dst)
			records++
		}
		tr.end(id)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	rep.add("stream.decode_ns_per_rec", "ns", float64(took.Nanoseconds())/float64(records))
	rep.add("stream.decode_allocs_per_rec", "count", float64(after.Mallocs-before.Mallocs)/float64(records))
	return nil
}

// walRung appends each batch's encoded wal.Record to a fresh log and
// commits it under fsync always, as the daemon's ingest path does.
func walRung(rep *report, dir string, spec server.StreamSpec, batches [][]stream.Interaction, dict *ids.Dict, tr *tracer) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	n := min(len(batches), walRungBatches)
	appends := make([]time.Duration, 0, n)
	commits := make([]time.Duration, 0, n)
	var buf []byte
	logged, records, dictLen := 0, 0, 0
	for i := 0; i < n; i++ {
		rows := batches[i]
		if spec.TimeMode == server.TimeArrival {
			// The daemon logs an arrival-mode chunk before its worker
			// stamps the step, so the logged records carry t=0.
			rows = slices.Clone(rows)
			for j := range rows {
				rows[j].T = 0
			}
		}
		hi := dictLen
		for _, x := range rows {
			hi = max(hi, int(x.Src)+1, int(x.Dst)+1)
		}
		labels := make([]string, 0, hi-dictLen)
		for id := dictLen; id < hi; id++ {
			labels = append(labels, dict.Name(ids.NodeID(id)))
		}
		rec := wal.Record{DictBase: dictLen, Labels: labels, Rows: rows}
		batch := tr.begin("wal.batch", -1, i)
		buf = rec.AppendEncode(buf[:0])
		var tok wal.Token
		appended := timeCall(tr, "wal.append", batch, i, func() { _, tok, err = l.Append(buf) })
		if err == nil {
			commits = append(commits, timeCall(tr, "wal.commit", batch, i, func() { err = l.Commit(tok) }))
		}
		tr.end(batch)
		if err != nil {
			_ = l.Remove() // the rung has failed already; its directory goes with runDir
			return fmt.Errorf("wal rung, batch %d: %w", i, err)
		}
		appends = append(appends, appended)
		logged += len(buf)
		records += len(rows)
		dictLen = hi
	}
	if err := l.Remove(); err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	rep.addQuantile("wal.append_us", "us", scaled(appends, time.Microsecond), 0.5)
	commitUs := scaled(commits, time.Microsecond)
	rep.addQuantile("wal.commit_p50_us", "us", commitUs, 0.5)
	rep.addQuantile("wal.commit_p90_us", "us", commitUs, 0.9)
	rep.add("wal.bytes_per_rec", "B", float64(logged)/float64(records))
	return nil
}

// notifyRung publishes the reference answer after every batch to a notify
// hub, as the daemon's worker does at each publish.
func notifyRung(rep *report, answers []tdnstream.Solution, batches [][]stream.Interaction, dict *ids.Dict, tr *tracer) {
	hub := notify.NewHub(notify.Config{})
	pubs := make([]time.Duration, len(answers))
	for i, sol := range answers {
		top := notify.TopK{T: batches[i][len(batches[i])-1].T, Value: sol.Value, Entries: make([]notify.Entry, len(sol.Seeds))}
		for j, id := range sol.Seeds {
			top.Entries[j] = notify.Entry{ID: id, Label: dict.Name(id)}
		}
		pubs[i] = timeCall(tr, "notify.publish", -1, i, func() { hub.Publish("bench", top) })
	}
	rep.addQuantile("notify.publish_us", "us", scaled(pubs, time.Microsecond), 0.5)
}

// auditRung runs one quality audit of the final tracker at the daemon's
// default budget.
func auditRung(rep *report, trk tdnstream.Tracker, spec server.StreamSpec, tr *tracer) error {
	a := audit.New(audit.Config{Interval: auditInterval, K: spec.Tracker.K})
	var err error
	took := timeCall(tr, "audit.run", -1, -1, func() { _, _, err = a.Run(trk) })
	if err != nil {
		return fmt.Errorf("audit rung: %w", err)
	}
	rep.add("audit.run_ms", "ms", float64(took)/float64(time.Millisecond))
	return nil
}

// serverRung drives server.New's handler in-process through the closed
// loop: the daemon's default config, the same window and poll cadence,
// and no sockets.
func serverRung(spec server.StreamSpec, w workload, in *input, sendFor time.Duration, walDir, logPath string, untraced bool, tr *tracer, layer string) (loopResult, error) {
	if err := os.RemoveAll(walDir); err != nil {
		return loopResult{}, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return loopResult{}, err
	}
	defer logf.Close()
	cfg := daemonConfig(walDir, logf)
	cfg.DisableTracing = untraced
	cfg.Streams = []server.StreamSpec{spec}
	srv, err := server.New(cfg)
	if err != nil {
		return loopResult{}, fmt.Errorf("%s rung: %w", layer, err)
	}
	res := closedLoop(handlerTarget{h: srv.Handler(), stream: spec.Name}, in, w.window, w.pollEvery, sendFor, tr, layer)
	if err := srv.Close(); err != nil {
		return res, fmt.Errorf("%s rung: %w", layer, err)
	}
	return res, os.RemoveAll(walDir)
}

// daemonConfig is the server.Config influtrackd builds from its default
// flags plus -wal-dir and -wal-fsync always, logging to logw.
func daemonConfig(walDir string, logw io.Writer) server.Config {
	flight := obs.NewFlight(1024, nil)
	return server.Config{
		QueueDepth:      256,
		MaxChunk:        4096,
		MaxBodyBytes:    256 << 20,
		RetryAfter:      time.Second,
		WALDir:          walDir,
		WALFsync:        wal.FsyncAlways,
		WALSegmentBytes: 64 << 20,
		AuditInterval:   auditInterval,
		Logger:          slog.New(obs.NewTeeHandler(slog.NewTextHandler(logw, nil), flight)),
		Flight:          flight,
		BuildLabels:     map[string]string{"shards": "0"},
	}
}
