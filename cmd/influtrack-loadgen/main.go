// Command influtrack-loadgen drives an influtrackd with realistic mixed
// traffic and, optionally, scheduled faults — the chaos/load harness for
// the serving stack.
//
// Traffic: -ingesters worker goroutines POST NDJSON batches whose node
// mix is zipfian (the popularity shape of the repo's synthetic datasets,
// via datasets.ZipfMix), -queriers poll /v1/topk, and -subscribers hold
// SSE event subscriptions open, all spread across -streams hosted
// streams that the harness creates on startup. Every request's latency
// lands in a log-bucketed histogram; the run report carries p50/p99/p999.
//
// Chaos: -chaos schedules faults against the daemon's /v1/admin/fault
// endpoint (the target must run with -fault-inject) as a comma-separated
// list of kind@start[/duration[/arg]] phases:
//
//	diskfull@10s/3s        ENOSPC on WAL segment writes for 3s
//	eio@20s/2s             EIO on WAL fsync for 2s
//	slowfsync@30s/5s/50ms  +50ms latency on every fsync for 5s
//	kill@40s               kill -9 the daemon mid-traffic, restart it
//	                       (needs -spawn so the harness owns the process)
//
// A failed checkpoint snapshot is the same fault as a failed chunk
// append — diskfull and eio windows hit both — so a daemon run with
// -checkpoint-interval exercises its snapshot path under every phase.
//
// -spawn "influtrackd -addr :8090 ..." makes the harness launch the
// daemon itself (stderr passes through), wait for /healthz, kill -9 and
// restart it at kill@ points, and SIGTERM it after the run. For exact
// loss accounting across kill@ phases run the daemon with -wal-dir and
// -wal-fsync always, so the log holds every acknowledged record past
// the newest snapshot and replay re-processes it.
//
// Verification (-verify, on by default): after traffic stops the harness
// waits for every queue to drain, then checks the acked-record ledger —
// each stream must account for at least as many records as the harness
// got 200s for (processed + stale_dropped + failed + superseded ≥ acked;
// a shortfall is an acknowledged record the server lost), every 503 must
// have carried Retry-After, and every stream must end healthy. A failed
// check exits 1.
//
// SLO gating (-slo): a comma-separated budget list asserted against the
// final report, for CI gates and capacity tests:
//
//	-slo "ingest_p99=50ms,query_p99=10ms,lost_acked=0,quality_ratio_min=0.5"
//
// ingest_p99 and query_p99 bound the client-observed p99 latencies
// (time.ParseDuration values), lost_acked bounds the verified
// acked-record loss (needs -verify), and quality_ratio_min floors the
// worst audited quality ratio across the run's streams (needs the
// daemon's quality auditor — a -spawn line carrying -audit-interval 0
// fails at startup, and a daemon exporting no quality gauges breaches
// loudly). The scraped per-stream gauges land in the report's "quality"
// section either way. Budgets, measured values and per-objective
// verdicts land in the report's "slo" section; any breach makes the run
// exit non-zero.
//
// The run report is JSON on stdout (or -json FILE):
//
//	influtrack-loadgen -spawn "./influtrackd -addr :8091 -wal-dir /tmp/wal \
//	    -wal-fsync always -fault-inject" -addr http://127.0.0.1:8091 \
//	    -streams 2 -ingesters 8 -duration 45s \
//	    -chaos "diskfull@10s/3s,slowfsync@20s/5s/20ms,kill@30s"
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tdnstream"
	"tdnstream/internal/datasets"
	"tdnstream/internal/metrics"
	"tdnstream/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "influtrackd base URL")
		spawn       = flag.String("spawn", "", "launch the daemon with this command line (space-separated; required for kill@ chaos)")
		streams     = flag.Int("streams", 2, "streams to create and spread traffic across")
		duration    = flag.Duration("duration", 30*time.Second, "traffic phase length")
		ingesters   = flag.Int("ingesters", 4, "concurrent ingest workers")
		queriers    = flag.Int("queriers", 2, "concurrent /v1/topk pollers")
		subscribers = flag.Int("subscribers", 0, "concurrent SSE event subscribers")
		batch       = flag.Int("batch", 200, "records per ingest request")
		nodes       = flag.Int("nodes", 50_000, "distinct node universe per stream")
		zipfS       = flag.Float64("zipf", 1.1, "zipf exponent of the node popularity mix")
		rate        = flag.Float64("rate", 0, "target ingest requests/s per worker (0 = unthrottled)")
		seed        = flag.Int64("seed", 42, "base RNG seed (worker i uses seed+i)")
		algo        = flag.String("algo", "histapprox", "tracker algorithm for created streams")
		k           = flag.Int("k", 10, "tracker seed budget")
		eps         = flag.Float64("eps", 0.2, "tracker approximation granularity")
		maxLife     = flag.Int("maxlife", 200, "tracker maximum lifetime L")
		window      = flag.Int("window", 100, "constant-lifetime window for created streams")
		timeMode    = flag.String("time-mode", server.TimeArrival, "time mode for created streams: arrival or event")
		chaos       = flag.String("chaos", "", "fault schedule: kind@start[/dur[/arg]],... (kinds: diskfull, eio, slowfsync, kill)")
		verify      = flag.Bool("verify", true, "after traffic, verify zero acked-record loss and a healthy final state")
		slo         = flag.String("slo", "", "SLO budgets asserted against the final report, e.g. ingest_p99=50ms,query_p99=10ms,lost_acked=0,quality_ratio_min=0.5; any breach exits non-zero")
		settle      = flag.Duration("settle", 2*time.Minute, "verification budget for queues to drain and counters to settle (unthrottled runs can bank a backlog several times the traffic phase)")
		jsonOut     = flag.String("json", "", "write the run report here instead of stdout")
		reportEvery = flag.Duration("report-interval", 0, "soak mode: close a measurement window at this interval, assert the -slo latency budgets against that window alone (first breached window fails the run immediately), and flush an intermediate JSON report to the -json path; the final report carries the full window history")
		subChurn    = flag.Duration("subscriber-churn", 0, "subscriber connection churn: each SSE subscriber deliberately disconnects at this interval and reconnects with Last-Event-ID resume (0 = hold connections open for the whole run)")
	)
	flag.Parse()

	actions, err := parseChaos(*chaos)
	if err != nil {
		log.Fatal(err)
	}
	budgets, err := parseSLO(*slo)
	if err != nil {
		log.Fatal(err)
	}
	if budgets.lostAcked >= 0 && !*verify {
		log.Fatal("-slo lost_acked needs -verify: the loss ledger is what it asserts against")
	}
	if budgets.qualityRatioMin > 0 && spawnDisablesAudit(*spawn) {
		log.Fatal("-slo quality_ratio_min needs the daemon's quality auditor: drop -audit-interval 0 from -spawn")
	}
	needsSpawn := false
	for _, a := range actions {
		if a.kind == "kill" {
			needsSpawn = true
		}
	}
	if needsSpawn && *spawn == "" {
		log.Fatal("kill@ chaos needs -spawn: the harness must own the daemon process")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	base := strings.TrimRight(*addr, "/")

	var proc *daemon
	if *spawn != "" {
		argv := strings.Fields(*spawn)
		if len(argv) == 0 {
			log.Fatal("-spawn is empty")
		}
		proc = &daemon{argv: argv}
		if err := proc.start(); err != nil {
			log.Fatalf("spawn: %v", err)
		}
		defer proc.stop(10 * time.Second)
	}
	if err := waitHealthy(client, base, 15*time.Second); err != nil {
		log.Fatalf("daemon not healthy: %v", err)
	}

	names := make([]string, *streams)
	for i := range names {
		names[i] = fmt.Sprintf("load-%d", i)
	}
	if err := createStreams(base, names, *algo, *k, *eps, *maxLife, *window, *timeMode); err != nil {
		log.Fatalf("create streams: %v", err)
	}

	st := newStats(len(names))
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	log.Printf("driving %s: %d ingesters × %d-record batches, %d queriers, %d subscribers over %d stream(s)",
		*duration, *ingesters, *batch, *queriers, *subscribers, len(names))

	var wg sync.WaitGroup
	for i := 0; i < *ingesters; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ingestWorker(ctx, client, base, names, st, ingestOpts{
				id: id, batch: *batch, nodes: *nodes, zipfS: *zipfS,
				rate: *rate, seed: *seed + int64(id),
			})
		}(i)
	}
	for i := 0; i < *queriers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			queryWorker(ctx, client, base, names, st, id)
		}(i)
	}
	for i := 0; i < *subscribers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			subscribeWorker(ctx, base, names[id%len(names)], st, *subChurn)
		}(i)
	}

	var soakDone func() ([]windowReport, bool)
	if *reportEvery > 0 {
		soakDone = runSoak(ctx, cancel, st, budgets, *reportEvery, *jsonOut)
	}

	recreate := func() error {
		return createStreams(base, names, *algo, *k, *eps, *maxLife, *window, *timeMode)
	}
	execLog := runChaos(ctx, client, base, proc, actions, recreate)
	wg.Wait()
	elapsed := *duration

	rep := buildReport(base, names, elapsed, st, execLog, proc != nil)
	rep.Server = scrapeServer(client, base, names)
	rep.Quality = scrapeQuality(client, base, names)
	if *verify {
		rep.Verify = verifyRun(client, base, names, st, *settle)
		rep.OK = rep.Verify.OK()
	} else {
		rep.OK = true
	}
	rep.SLO = evalSLO(budgets, st, rep)
	if rep.SLO != nil && !rep.SLO.OK {
		rep.OK = false
	}
	if soakDone != nil {
		windows, ok := soakDone()
		rep.Soak = &soakReport{IntervalS: reportEvery.Seconds(), Windows: windows, OK: ok}
		if !ok {
			rep.OK = false
		}
	}

	out, _ := json.MarshalIndent(rep, "", "  ")
	out = append(out, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
		log.Printf("report written to %s", *jsonOut)
	} else {
		os.Stdout.Write(out)
	}
	if proc != nil {
		proc.stop(10 * time.Second)
	}
	if rep.SLO != nil {
		for _, c := range rep.SLO.Checks {
			if !c.OK {
				log.Printf("SLO BREACH: %s measured %s against budget %s", c.Objective, c.Actual, c.Budget)
			}
		}
	}
	if !rep.OK {
		log.Fatal("RUN FAILED — see report")
	}
	log.Printf("ok: %d records acked at p99 %.2fms ingest latency, 0 acked records lost",
		st.recordsAcked.Load(), ms(st.ingestLat.Quantile(0.99)))
}

// ---- stats -----------------------------------------------------------

type stats struct {
	ingestReq, recordsAcked                                atomic.Uint64
	http200, http429, http503, http4xx, http5xx, netErrors atomic.Uint64
	retryAfterMissing                                      atomic.Uint64
	queryReq, query200, queryErr                           atomic.Uint64
	eventsReceived, subscriberDrops                        atomic.Uint64
	churnCycles, resumes                                   atomic.Uint64
	ingestLat, queryLat                                    metrics.LatencyHist
	ackedByStream                                          []atomic.Uint64
	// winIngest/winQuery are the current soak window's histograms,
	// swapped for fresh ones at every -report-interval tick so each
	// window's latency verdict stands alone. Nil outside soak mode.
	winIngest, winQuery atomic.Pointer[metrics.LatencyHist]
}

func newStats(n int) *stats { return &stats{ackedByStream: make([]atomic.Uint64, n)} }

// ---- daemon management ----------------------------------------------

// daemon owns a spawned influtrackd process: start, kill -9, restart,
// graceful stop. All transitions are serialized; the chaos executor and
// the deferred shutdown share one instance.
type daemon struct {
	argv []string
	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan error
}

func (d *daemon) start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cmd := exec.Command(d.argv[0], d.argv[1:]...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	d.cmd, d.done = cmd, done
	log.Printf("spawned %s (pid %d)", d.argv[0], cmd.Process.Pid)
	return nil
}

// kill9 delivers SIGKILL and reaps the process — the no-warning crash.
func (d *daemon) kill9() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return
	}
	pid := d.cmd.Process.Pid
	_ = d.cmd.Process.Kill()
	<-d.done
	d.cmd, d.done = nil, nil
	log.Printf("killed pid %d (SIGKILL)", pid)
}

// stop asks nicely (SIGTERM → graceful drain + checkpoint) and escalates
// to SIGKILL after the budget.
func (d *daemon) stop(budget time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(budget):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.cmd, d.done = nil, nil
}

func waitHealthy(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("healthz answered %v until the deadline", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func createStreams(base string, names []string, algo string, k int, eps float64, maxLife, window int, timeMode string) error {
	// Stream creation gets its own unclamped client: re-hosting a
	// WAL-backed stream after a kill replays its whole log inside the
	// create call, which takes as long as re-processing the records does.
	client := &http.Client{}
	for _, name := range names {
		spec := server.StreamSpec{
			Name:     name,
			Tracker:  tdnstream.TrackerSpec{Algo: algo, K: k, Eps: eps, L: maxLife},
			Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: window},
			TimeMode: timeMode,
		}
		body, _ := json.Marshal(spec)
		resp, err := client.Post(base+"/v1/streams", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// 409: the stream survived from a previous run (the daemon
		// re-hosts every stream whose log holds a snapshot) — reuse it,
		// the ledger check is ≥-based.
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return fmt.Errorf("create %s: %s: %s", name, resp.Status, strings.TrimSpace(string(msg)))
		}
	}
	return nil
}

// ---- traffic workers -------------------------------------------------

type ingestOpts struct {
	id, batch, nodes int
	zipfS            float64
	rate             float64
	seed             int64
}

// ingestWorker POSTs zipf-mixed NDJSON batches round-robin over the
// streams until the context ends. Failures are expected under chaos —
// 503 means degraded (honor Retry-After), connection errors mean a kill
// window — and the worker always keeps going; resilience of the client
// is part of what the harness demonstrates.
func ingestWorker(ctx context.Context, client *http.Client, base string, names []string, st *stats, o ingestOpts) {
	mix := datasets.NewZipfMix(o.nodes, o.zipfS, o.seed)
	rng := rand.New(rand.NewSource(o.seed ^ 0x9e3779b9))
	var buf bytes.Buffer
	var tick int64
	var interval time.Duration
	if o.rate > 0 {
		interval = time.Duration(float64(time.Second) / o.rate)
	}
	next := time.Now()
	for i := o.id; ; i++ {
		if ctx.Err() != nil {
			return
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			next = next.Add(interval)
		}
		stream := i % len(names)
		buf.Reset()
		for r := 0; r < o.batch; r++ {
			tick++
			src, dst := mix.Pick(), mix.Pick()
			if src == dst {
				dst = (dst + 1 + rng.Intn(o.nodes-1)) % o.nodes
			}
			fmt.Fprintf(&buf, `{"src":"n%d","dst":"n%d","t":%d}`+"\n", src, dst, o.seed*1_000_000+tick)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/v1/ingest?stream="+names[stream], bytes.NewReader(buf.Bytes()))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		start := time.Now()
		resp, err := client.Do(req)
		st.ingestReq.Add(1)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			st.netErrors.Add(1) // daemon down (kill window) or mid-crash reset
			sleepCtx(ctx, 100*time.Millisecond)
			continue
		}
		lat := time.Since(start)
		st.ingestLat.Observe(lat)
		if h := st.winIngest.Load(); h != nil {
			h.Observe(lat)
		}
		var ir struct {
			Accepted int `json:"accepted"`
		}
		dec := json.NewDecoder(resp.Body)
		decErr := dec.Decode(&ir)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			st.http200.Add(1)
			if decErr == nil {
				st.recordsAcked.Add(uint64(ir.Accepted))
				st.ackedByStream[stream].Add(uint64(ir.Accepted))
			}
		case resp.StatusCode == http.StatusServiceUnavailable:
			st.http503.Add(1)
			ra := resp.Header.Get("Retry-After")
			if ra == "" {
				st.retryAfterMissing.Add(1)
			}
			sleepCtx(ctx, retryAfterDelay(ra))
		case resp.StatusCode == http.StatusTooManyRequests:
			st.http429.Add(1)
			sleepCtx(ctx, retryAfterDelay(resp.Header.Get("Retry-After")))
		case resp.StatusCode >= 500:
			// Ack-ambiguous: the records may or may not be durable. The
			// ledger only counts 200s, so no retry is needed for the
			// zero-loss check — real producers would retry.
			st.http5xx.Add(1)
			sleepCtx(ctx, 10*time.Millisecond)
		default:
			// 404s in the window between a kill restart and the stream
			// re-host; don't hot-spin against them.
			st.http4xx.Add(1)
			sleepCtx(ctx, 50*time.Millisecond)
		}
	}
}

func queryWorker(ctx context.Context, client *http.Client, base string, names []string, st *stats, id int) {
	for i := id; ctx.Err() == nil; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/v1/topk?stream="+names[i%len(names)], nil)
		if err != nil {
			return
		}
		start := time.Now()
		resp, err := client.Do(req)
		st.queryReq.Add(1)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			st.queryErr.Add(1)
			sleepCtx(ctx, 100*time.Millisecond)
			continue
		}
		lat := time.Since(start)
		st.queryLat.Observe(lat)
		if h := st.winQuery.Load(); h != nil {
			h.Observe(lat)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			st.query200.Add(1)
		} else {
			st.queryErr.Add(1)
		}
		sleepCtx(ctx, 20*time.Millisecond)
	}
}

// subscribeWorker holds an SSE subscription open, counting event frames,
// reconnecting whenever the connection drops (slow-consumer drop, daemon
// kill). A plain non-timeout client: SSE connections are long-lived by
// design.
//
// With churn > 0 the worker deliberately cycles the connection at that
// interval: disconnect, reconnect with a Last-Event-ID resume header
// built from the last "id:" line seen — the connect/resume/disconnect
// treadmill that exercises the notify hub's subscribe, journal-resume
// and eviction paths under sustained membership turnover.
func subscribeWorker(ctx context.Context, base, name string, st *stats, churn time.Duration) {
	client := &http.Client{}
	lastEventID := ""
	for ctx.Err() == nil {
		connCtx := ctx
		cancel := context.CancelFunc(func() {})
		if churn > 0 {
			connCtx, cancel = context.WithTimeout(ctx, churn)
		}
		req, err := http.NewRequestWithContext(connCtx, http.MethodGet,
			base+"/v1/streams/"+name+"/events", nil)
		if err != nil {
			cancel()
			return
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
			st.resumes.Add(1)
		}
		resp, err := client.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			if churn > 0 && connCtx.Err() != nil && ctx.Err() == nil {
				st.churnCycles.Add(1) // timer fired mid-connect: still a planned cycle
				continue
			}
			st.subscriberDrops.Add(1)
			sleepCtx(ctx, 200*time.Millisecond)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "id:") {
				lastEventID = strings.TrimSpace(line[len("id:"):])
			}
			if strings.HasPrefix(line, "data:") {
				st.eventsReceived.Add(1)
			}
		}
		resp.Body.Close()
		cancel()
		switch {
		case ctx.Err() != nil: // run over
		case churn > 0 && connCtx.Err() != nil:
			st.churnCycles.Add(1) // planned churn disconnect, not a drop
		default:
			st.subscriberDrops.Add(1)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// retryAfterDelay turns a Retry-After header into a wait, capped so a
// chaos run never stalls a worker for longer than a fault phase.
func retryAfterDelay(h string) time.Duration {
	d := 50 * time.Millisecond
	if h != "" {
		var secs int
		if _, err := fmt.Sscanf(h, "%d", &secs); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// ---- chaos -----------------------------------------------------------

type chaosAction struct {
	kind string        // diskfull | eio | slowfsync | kill
	at   time.Duration // offset from traffic start
	dur  time.Duration // fault TTL (diskfull/eio/slowfsync)
	arg  time.Duration // slowfsync delay
}

// parseChaos parses "kind@start[/dur[/arg]],..." into a schedule.
func parseChaos(s string) ([]chaosAction, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []chaosAction
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos phase %q: want kind@start[/dur[/arg]]", part)
		}
		fields := strings.Split(rest, "/")
		a := chaosAction{kind: kind}
		var err error
		if a.at, err = time.ParseDuration(fields[0]); err != nil {
			return nil, fmt.Errorf("chaos phase %q: bad start: %v", part, err)
		}
		if len(fields) > 1 {
			if a.dur, err = time.ParseDuration(fields[1]); err != nil {
				return nil, fmt.Errorf("chaos phase %q: bad duration: %v", part, err)
			}
		}
		if len(fields) > 2 {
			if a.arg, err = time.ParseDuration(fields[2]); err != nil {
				return nil, fmt.Errorf("chaos phase %q: bad arg: %v", part, err)
			}
		}
		switch a.kind {
		case "diskfull", "eio":
			if a.dur <= 0 {
				return nil, fmt.Errorf("chaos phase %q needs a duration (kind@start/dur)", part)
			}
		case "slowfsync":
			if a.dur <= 0 || a.arg <= 0 {
				return nil, fmt.Errorf("chaos phase %q needs duration and delay (slowfsync@start/dur/delay)", part)
			}
		case "kill":
		default:
			return nil, fmt.Errorf("chaos phase %q: unknown kind (want diskfull, eio, slowfsync or kill)", part)
		}
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		if out[i].at < out[i-1].at {
			return nil, fmt.Errorf("chaos schedule must be in start order (%s before %s)", out[i].kind, out[i-1].kind)
		}
	}
	return out, nil
}

// chaosExec is one executed phase, for the report.
type chaosExec struct {
	Kind   string  `json:"kind"`
	AtS    float64 `json:"at_s"`
	Detail string  `json:"detail,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// runChaos executes the schedule in a goroutine and returns a function
// that waits for it and yields the execution log. recreate re-hosts the
// harness's streams after a kill restart: the daemon boots flag-declared
// streams and those whose log holds a snapshot, and re-creating any
// other WAL-backed stream replays its intact log from genesis — the
// recovery the zero-loss ledger verifies either way.
func runChaos(ctx context.Context, client *http.Client, base string, proc *daemon, actions []chaosAction, recreate func() error) func() []chaosExec {
	out := make(chan []chaosExec, 1)
	start := time.Now()
	go func() {
		var log_ []chaosExec
		defer func() { out <- log_ }()
		for _, a := range actions {
			if d := a.at - time.Since(start); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			if ctx.Err() != nil {
				return
			}
			ex := chaosExec{Kind: a.kind, AtS: time.Since(start).Seconds()}
			switch a.kind {
			case "diskfull":
				ex.Detail = fmt.Sprintf("ENOSPC on WAL writes for %s", a.dur)
				ex.Error = postFault(client, base, map[string]any{
					"op": "write", "path": "seg-", "err": "enospc", "ttl_ms": a.dur.Milliseconds(),
				})
			case "eio":
				ex.Detail = fmt.Sprintf("EIO on WAL fsync for %s", a.dur)
				ex.Error = postFault(client, base, map[string]any{
					"op": "sync", "path": "seg-", "err": "eio", "ttl_ms": a.dur.Milliseconds(),
				})
			case "slowfsync":
				ex.Detail = fmt.Sprintf("+%s on every fsync for %s", a.arg, a.dur)
				ex.Error = postFault(client, base, map[string]any{
					"op": "sync", "delay_ms": a.arg.Milliseconds(), "ttl_ms": a.dur.Milliseconds(),
				})
			case "kill":
				ex.Detail = "SIGKILL mid-traffic, restart, wait healthy, re-host streams (WAL replay)"
				proc.kill9()
				if err := proc.start(); err != nil {
					ex.Error = err.Error()
				} else if err := waitHealthy(client, base, 30*time.Second); err != nil {
					ex.Error = "restart never became healthy: " + err.Error()
				} else if err := recreate(); err != nil {
					ex.Error = "re-hosting streams after restart: " + err.Error()
				}
			}
			if ex.Error != "" {
				log.Printf("chaos %s@%.1fs FAILED: %s", ex.Kind, ex.AtS, ex.Error)
			} else {
				log.Printf("chaos %s@%.1fs: %s", ex.Kind, ex.AtS, ex.Detail)
			}
			log_ = append(log_, ex)
		}
	}()
	return func() []chaosExec { return <-out }
}

// postFault installs one rule via the admin endpoint, returning "" or an
// error string for the report.
func postFault(client *http.Client, base string, rule map[string]any) string {
	body, _ := json.Marshal(rule)
	resp, err := client.Post(base+"/v1/admin/fault", "application/json", bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Sprintf("%s: %s (is the daemon running -fault-inject?)", resp.Status, strings.TrimSpace(string(msg)))
	}
	return ""
}

// ---- SLO gating ------------------------------------------------------

// sloSpec holds parsed -slo budgets. Zero durations and negative
// lostAcked / qualityRatioMin mean "objective not asserted".
type sloSpec struct {
	ingestP99, queryP99 time.Duration
	lostAcked           int64
	qualityRatioMin     float64
}

// parseSLO parses "key=value,..." budgets: ingest_p99 and query_p99 are
// durations bounding the client-observed p99 latencies, lost_acked an
// integer bounding verified acked-record loss, quality_ratio_min a
// floor on the worst audited quality ratio across the run's streams
// (needs the daemon's quality auditor enabled — a run that scrapes no
// quality gauges breaches loudly rather than passing vacuously).
func parseSLO(s string) (sloSpec, error) {
	spec := sloSpec{lostAcked: -1, qualityRatioMin: -1}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("slo %q: want key=value", part)
		}
		var err error
		switch strings.TrimSpace(key) {
		case "ingest_p99":
			spec.ingestP99, err = time.ParseDuration(val)
			if err == nil && spec.ingestP99 <= 0 {
				err = fmt.Errorf("budget must be positive")
			}
		case "query_p99":
			spec.queryP99, err = time.ParseDuration(val)
			if err == nil && spec.queryP99 <= 0 {
				err = fmt.Errorf("budget must be positive")
			}
		case "lost_acked":
			spec.lostAcked, err = strconv.ParseInt(val, 10, 64)
			if err == nil && spec.lostAcked < 0 {
				err = fmt.Errorf("budget must be ≥ 0")
			}
		case "quality_ratio_min":
			spec.qualityRatioMin, err = strconv.ParseFloat(val, 64)
			if err == nil && spec.qualityRatioMin <= 0 {
				err = fmt.Errorf("budget must be positive")
			}
		default:
			return spec, fmt.Errorf("slo %q: unknown objective (want ingest_p99, query_p99, lost_acked or quality_ratio_min)", key)
		}
		if err != nil {
			return spec, fmt.Errorf("slo %q: %v", part, err)
		}
	}
	return spec, nil
}

// spawnDisablesAudit reports whether a -spawn command line turns the
// daemon's quality auditor off (-audit-interval 0). Asserting
// quality_ratio_min against such a daemon could only ever breach on
// "no gauges scraped" after the whole run — fail at startup instead,
// like lost_acked does without -verify.
func spawnDisablesAudit(spawn string) bool {
	argv := strings.Fields(spawn)
	for i, a := range argv {
		if a == "-audit-interval=0" || a == "--audit-interval=0" {
			return true
		}
		if (a == "-audit-interval" || a == "--audit-interval") &&
			i+1 < len(argv) && argv[i+1] == "0" {
			return true
		}
	}
	return false
}

// sloCheck is one objective's verdict in the report.
type sloCheck struct {
	Objective string `json:"objective"`
	Budget    string `json:"budget"`
	Actual    string `json:"actual"`
	OK        bool   `json:"ok"`
}

type sloReport struct {
	Checks []sloCheck `json:"checks"`
	OK     bool       `json:"ok"`
}

// evalSLO asserts the budgets against the measured run; nil when no
// objective was set.
func evalSLO(spec sloSpec, st *stats, rep *report) *sloReport {
	if spec.ingestP99 == 0 && spec.queryP99 == 0 && spec.lostAcked < 0 && spec.qualityRatioMin <= 0 {
		return nil
	}
	out := &sloReport{OK: true}
	add := func(objective, budget, actual string, ok bool) {
		out.Checks = append(out.Checks, sloCheck{Objective: objective, Budget: budget, Actual: actual, OK: ok})
		if !ok {
			out.OK = false
		}
	}
	if spec.ingestP99 > 0 {
		got := st.ingestLat.Quantile(0.99)
		add("ingest_p99", spec.ingestP99.String(), got.String(), got <= spec.ingestP99)
	}
	if spec.queryP99 > 0 {
		got := st.queryLat.Quantile(0.99)
		add("query_p99", spec.queryP99.String(), got.String(), got <= spec.queryP99)
	}
	if spec.lostAcked >= 0 {
		lost := rep.Verify.LostAcked
		add("lost_acked", strconv.FormatInt(spec.lostAcked, 10),
			strconv.FormatUint(lost, 10), lost <= uint64(spec.lostAcked))
	}
	if spec.qualityRatioMin > 0 {
		// The floor is asserted against the WORST audited stream: quality
		// regressions on one stream must not hide behind a healthy mean.
		// No scraped quality gauges means the auditor never ran (disabled,
		// or the daemon predates it) — a loud breach, never a vacuous pass.
		budget := strconv.FormatFloat(spec.qualityRatioMin, 'g', -1, 64)
		if rep.Quality == nil || len(rep.Quality.Streams) == 0 {
			add("quality_ratio_min", budget, "no quality gauges scraped (audit disabled?)", false)
		} else {
			worst := math.Inf(1)
			for _, q := range rep.Quality.Streams {
				if q.QualityRatio < worst {
					worst = q.QualityRatio
				}
			}
			add("quality_ratio_min", budget,
				strconv.FormatFloat(worst, 'g', -1, 64), worst >= spec.qualityRatioMin)
		}
	}
	return out
}

// ---- soak windows ----------------------------------------------------

// windowReport is one -report-interval measurement window: throughput
// deltas and window-local latency quantiles, with the window's own SLO
// verdict when latency budgets are set.
type windowReport struct {
	Index        int         `json:"index"`
	StartS       float64     `json:"start_s"`
	EndS         float64     `json:"end_s"`
	RecordsAcked uint64      `json:"records_acked"`
	HTTP503      uint64      `json:"http_503"`
	HTTP429      uint64      `json:"http_429"`
	NetErrors    uint64      `json:"net_errors"`
	Ingest       latencyJSON `json:"ingest_latency"`
	Query        latencyJSON `json:"query_latency"`
	SLO          *sloReport  `json:"slo,omitempty"`
	OK           bool        `json:"ok"`
}

// soakReport is the final report's window history.
type soakReport struct {
	IntervalS float64        `json:"interval_s"`
	Windows   []windowReport `json:"windows"`
	OK        bool           `json:"ok"`
}

// evalWindowSLO asserts only the latency objectives against one
// window's histograms — lost_acked and quality_ratio_min need the
// post-traffic settle and stay end-of-run checks. An idle window (no
// requests observed, e.g. mid kill@ restart) passes vacuously: there is
// no latency to breach.
func evalWindowSLO(spec sloSpec, ing, qry *metrics.LatencyHist) *sloReport {
	if spec.ingestP99 == 0 && spec.queryP99 == 0 {
		return nil
	}
	out := &sloReport{OK: true}
	add := func(objective, budget, actual string, ok bool) {
		out.Checks = append(out.Checks, sloCheck{Objective: objective, Budget: budget, Actual: actual, OK: ok})
		if !ok {
			out.OK = false
		}
	}
	if spec.ingestP99 > 0 && ing.Count() > 0 {
		got := ing.Quantile(0.99)
		add("ingest_p99", spec.ingestP99.String(), got.String(), got <= spec.ingestP99)
	}
	if spec.queryP99 > 0 && qry.Count() > 0 {
		got := qry.Quantile(0.99)
		add("query_p99", spec.queryP99.String(), got.String(), got <= spec.queryP99)
	}
	return out
}

// runSoak closes a measurement window every interval: swaps the window
// histograms, snapshots counter deltas, asserts the latency budgets
// against the window alone, and (when -json is set) flushes an
// intermediate report so an operator tailing a long soak sees progress
// without waiting for the final report. The FIRST breached window
// cancels the traffic context — a 10-minute soak that dies in window 2
// fails in minute 2, not minute 10. Returns a join function yielding
// the window history and the overall verdict.
func runSoak(ctx context.Context, cancel context.CancelFunc, st *stats, spec sloSpec, interval time.Duration, jsonOut string) func() ([]windowReport, bool) {
	type snap struct{ acked, h503, h429, netErr uint64 }
	take := func() snap {
		return snap{st.recordsAcked.Load(), st.http503.Load(), st.http429.Load(), st.netErrors.Load()}
	}
	st.winIngest.Store(&metrics.LatencyHist{})
	st.winQuery.Store(&metrics.LatencyHist{})
	out := make(chan struct {
		windows []windowReport
		ok      bool
	}, 1)
	start := time.Now()
	go func() {
		var windows []windowReport
		ok := true
		defer func() {
			out <- struct {
				windows []windowReport
				ok      bool
			}{windows, ok}
		}()
		flush := func() {
			if jsonOut == "" {
				return
			}
			doc := map[string]any{
				"phase":     "running",
				"elapsed_s": time.Since(start).Seconds(),
				"soak": soakReport{
					IntervalS: interval.Seconds(), Windows: windows, OK: ok,
				},
				"records_acked": st.recordsAcked.Load(),
			}
			b, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				return
			}
			if werr := os.WriteFile(jsonOut, append(b, '\n'), 0o644); werr != nil {
				log.Printf("soak: intermediate report write failed: %v", werr)
			}
		}
		prev := take()
		winStart := start
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			ing := st.winIngest.Swap(&metrics.LatencyHist{})
			qry := st.winQuery.Swap(&metrics.LatencyHist{})
			cur := take()
			w := windowReport{
				Index:        i,
				StartS:       winStart.Sub(start).Seconds(),
				EndS:         time.Since(start).Seconds(),
				RecordsAcked: cur.acked - prev.acked,
				HTTP503:      cur.h503 - prev.h503,
				HTTP429:      cur.h429 - prev.h429,
				NetErrors:    cur.netErr - prev.netErr,
				Ingest:       latJSON(ing),
				Query:        latJSON(qry),
				SLO:          evalWindowSLO(spec, ing, qry),
				OK:           true,
			}
			if w.SLO != nil && !w.SLO.OK {
				w.OK = false
			}
			windows = append(windows, w)
			prev, winStart = cur, time.Now()
			if !w.OK {
				ok = false
				for _, c := range w.SLO.Checks {
					if !c.OK {
						log.Printf("soak window %d BREACHED: %s measured %s against budget %s — failing fast",
							i, c.Objective, c.Actual, c.Budget)
					}
				}
				flush()
				cancel()
				return
			}
			log.Printf("soak window %d: %d records acked, ingest p99 %.2fms, query p99 %.2fms",
				i, w.RecordsAcked, w.Ingest.P99Ms, w.Query.P99Ms)
			flush()
		}
	}()
	return func() ([]windowReport, bool) {
		r := <-out
		return r.windows, r.ok
	}
}

// ---- verification ----------------------------------------------------

type streamLedger struct {
	Acked     uint64 `json:"acked"`
	Accounted uint64 `json:"accounted"`
	Lost      uint64 `json:"lost"`
	State     string `json:"state"`
}

type verifyReport struct {
	Converged         bool                    `json:"converged"`
	LostAcked         uint64                  `json:"lost_acked"`
	RetryAfterMissing uint64                  `json:"retry_after_missing"`
	AllHealthy        bool                    `json:"all_healthy"`
	PerStream         map[string]streamLedger `json:"per_stream"`
	Error             string                  `json:"error,omitempty"`
}

func (v verifyReport) OK() bool {
	return v.Converged && v.LostAcked == 0 && v.RetryAfterMissing == 0 && v.AllHealthy && v.Error == ""
}

// verifyRun settles the acked-record ledger. Convergence means every
// stream's queue is drained and its accounting counters are stable;
// accounted = processed + stale_dropped + failed + superseded must then
// cover every record the harness got a 200 for. After a kill@ phase the
// daemon's counters restart from WAL replay, which re-processes every
// durable record — so the inequality still holds exactly when no acked
// record was lost (run the target with -wal-fsync always).
func verifyRun(client *http.Client, base string, names []string, st *stats, settle time.Duration) verifyReport {
	rep := verifyReport{PerStream: make(map[string]streamLedger)}
	type info struct {
		Name         string `json:"name"`
		QueueDepth   int    `json:"queue_depth"`
		Processed    uint64 `json:"processed"`
		StaleDropped uint64 `json:"stale_dropped"`
		Failed       uint64 `json:"failed"`
		Superseded   uint64 `json:"superseded"`
		State        string `json:"state"`
	}
	fetch := func() (map[string]info, error) {
		resp, err := client.Get(base + "/v1/streams")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var list struct {
			Streams []info `json:"streams"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			return nil, err
		}
		m := make(map[string]info, len(list.Streams))
		for _, s := range list.Streams {
			m[s.Name] = s
		}
		return m, nil
	}
	accounted := func(s info) uint64 { return s.Processed + s.StaleDropped + s.Failed + s.Superseded }

	// Drain: queues empty and counters unchanged across two consecutive
	// polls. The repair loop may still be healing a degraded stream —
	// give it the same window.
	deadline := time.Now().Add(settle)
	var prev map[string]info
	for {
		cur, err := fetch()
		if err == nil {
			settled := true
			for _, name := range names {
				s, ok := cur[name]
				if !ok || s.QueueDepth > 0 || s.State != server.StateHealthy {
					settled = false
					break
				}
				if prev != nil {
					if p, ok := prev[name]; !ok || accounted(p) != accounted(s) {
						settled = false
						break
					}
				} else {
					settled = false
				}
			}
			if settled {
				rep.Converged = true
				prev = cur
				break
			}
			prev = cur
		}
		if time.Now().After(deadline) {
			rep.Error = fmt.Sprintf("streams never settled (queues drained + counters stable + healthy) within %v", settle)
			if err != nil {
				rep.Error += ": " + err.Error()
			}
			break
		}
		time.Sleep(250 * time.Millisecond)
	}

	rep.AllHealthy = true
	rep.RetryAfterMissing = st.retryAfterMissing.Load()
	for i, name := range names {
		led := streamLedger{Acked: st.ackedByStream[i].Load()}
		if s, ok := prev[name]; ok {
			led.Accounted = accounted(s)
			led.State = s.State
		}
		if led.Accounted < led.Acked {
			led.Lost = led.Acked - led.Accounted
			rep.LostAcked += led.Lost
		}
		if led.State != server.StateHealthy {
			rep.AllHealthy = false
		}
		rep.PerStream[name] = led
	}
	return rep
}

// ---- report ----------------------------------------------------------

type latencyJSON struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

func latJSON(h *metrics.LatencyHist) latencyJSON {
	return latencyJSON{
		P50Ms:  ms(h.Quantile(0.50)),
		P99Ms:  ms(h.Quantile(0.99)),
		P999Ms: ms(h.Quantile(0.999)),
		MaxMs:  ms(h.Max()),
		MeanMs: ms(h.Mean()),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type report struct {
	Addr      string   `json:"addr"`
	Streams   []string `json:"streams"`
	DurationS float64  `json:"duration_s"`
	Spawned   bool     `json:"spawned"`
	Ingest    struct {
		Requests      uint64      `json:"requests"`
		RecordsAcked  uint64      `json:"records_acked"`
		HTTP200       uint64      `json:"http_200"`
		HTTP429       uint64      `json:"http_429"`
		HTTP503       uint64      `json:"http_503"`
		HTTP4xx       uint64      `json:"http_4xx"`
		HTTP5xx       uint64      `json:"http_5xx"`
		NetErrors     uint64      `json:"net_errors"`
		RecordsPerSec float64     `json:"records_per_sec"`
		Latency       latencyJSON `json:"latency"`
	} `json:"ingest"`
	Query struct {
		Requests uint64      `json:"requests"`
		HTTP200  uint64      `json:"http_200"`
		Errors   uint64      `json:"errors"`
		Latency  latencyJSON `json:"latency"`
	} `json:"query"`
	Events struct {
		Received    uint64 `json:"received"`
		Drops       uint64 `json:"reconnects"`
		ChurnCycles uint64 `json:"churn_cycles,omitempty"`
		Resumes     uint64 `json:"resumes,omitempty"`
	} `json:"events"`
	Chaos   []chaosExec    `json:"chaos,omitempty"`
	Server  serverReport   `json:"server"`
	Quality *qualityReport `json:"quality,omitempty"`
	Verify  verifyReport   `json:"verify"`
	SLO     *sloReport     `json:"slo,omitempty"`
	Soak    *soakReport    `json:"soak,omitempty"`
	OK      bool           `json:"ok"`
}

// serverSummaryJSON is one server-side latency summary scraped from the
// daemon's /metrics — the daemon's own view of the run, to set against
// the client-observed latencies above (the gap between the two is
// network + Go HTTP stack).
type serverSummaryJSON struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	Count  uint64  `json:"count"`
}

// serverReport carries the daemon-side histograms for the streams this
// run drove. Scraped is false when /metrics was unreachable or did not
// parse — an old daemon, not a failed run.
type serverReport struct {
	Scraped bool                                    `json:"scraped"`
	Streams map[string]map[string]serverSummaryJSON `json:"streams,omitempty"`
}

// scrapeServer pulls the daemon's serving-path summaries off /metrics at
// the end of the run: ingest HTTP, topk, WAL group-commit and worker
// batch latency per stream, keyed by a short family name.
func scrapeServer(client *http.Client, base string, names []string) serverReport {
	var sr serverReport
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return sr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr
	}
	fams, err := metrics.ParseProm(resp.Body)
	if err != nil {
		return sr
	}
	short := map[string]string{
		"influtrackd_ingest_request_seconds": "ingest",
		"influtrackd_topk_request_seconds":   "topk",
		"influtrackd_wal_commit_seconds":     "wal_commit",
		"influtrackd_worker_batch_seconds":   "worker_batch",
	}
	inRun := make(map[string]bool, len(names))
	for _, n := range names {
		inRun[n] = true
	}
	sr.Scraped = true
	sr.Streams = make(map[string]map[string]serverSummaryJSON)
	for _, fam := range fams {
		key, ok := short[fam.Name]
		if !ok {
			continue
		}
		for _, smp := range fam.Samples {
			stream := smp.Labels["stream"]
			if !inRun[stream] {
				continue
			}
			byFam := sr.Streams[stream]
			if byFam == nil {
				byFam = make(map[string]serverSummaryJSON)
				sr.Streams[stream] = byFam
			}
			s := byFam[key]
			switch {
			case smp.Labels["quantile"] == "0.5":
				s.P50Ms = smp.Value * 1e3
			case smp.Labels["quantile"] == "0.99":
				s.P99Ms = smp.Value * 1e3
			case smp.Labels["quantile"] == "0.999":
				s.P999Ms = smp.Value * 1e3
			case smp.Name == fam.Name+"_count":
				s.Count = uint64(smp.Value)
			}
			byFam[key] = s
		}
	}
	return sr
}

// streamQuality is one stream's audited answer quality, scraped off the
// daemon's cached influtrackd_quality_* gauges at the end of the run.
type streamQuality struct {
	QualityRatio  float64  `json:"quality_ratio"`
	TopkJaccard   float64  `json:"topk_jaccard"`
	KendallTau    float64  `json:"kendall_tau"`
	OracleCalls   uint64   `json:"audit_oracle_calls"`
	MergeGapRatio *float64 `json:"merge_gap_ratio,omitempty"` // sharded streams only
}

// qualityReport carries the per-stream audit gauges for the streams the
// run drove; nil Streams entries mean the daemon exports no quality
// surface (auditing disabled or an old daemon).
type qualityReport struct {
	Scraped bool                     `json:"scraped"`
	Streams map[string]streamQuality `json:"streams,omitempty"`
}

// scrapeQuality pulls the quality-audit gauges off /metrics for the
// run's streams. Distinct from scrapeServer on purpose: latency
// summaries answer "how fast", these answer "how good", and the SLO
// gate (quality_ratio_min) keys off this section alone.
func scrapeQuality(client *http.Client, base string, names []string) *qualityReport {
	qr := &qualityReport{}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return qr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return qr
	}
	fams, err := metrics.ParseProm(resp.Body)
	if err != nil {
		return qr
	}
	inRun := make(map[string]bool, len(names))
	for _, n := range names {
		inRun[n] = true
	}
	qr.Scraped = true
	set := func(stream string, f func(*streamQuality)) {
		if !inRun[stream] {
			return
		}
		if qr.Streams == nil {
			qr.Streams = make(map[string]streamQuality)
		}
		q := qr.Streams[stream]
		f(&q)
		qr.Streams[stream] = q
	}
	for _, fam := range fams {
		for _, smp := range fam.Samples {
			stream, v := smp.Labels["stream"], smp.Value
			switch fam.Name {
			case "influtrackd_quality_ratio":
				set(stream, func(q *streamQuality) { q.QualityRatio = v })
			case "influtrackd_topk_jaccard":
				set(stream, func(q *streamQuality) { q.TopkJaccard = v })
			case "influtrackd_kendall_tau":
				set(stream, func(q *streamQuality) { q.KendallTau = v })
			case "influtrackd_audit_oracle_calls":
				set(stream, func(q *streamQuality) { q.OracleCalls = uint64(v) })
			case "influtrackd_merge_gap_ratio":
				set(stream, func(q *streamQuality) { q.MergeGapRatio = &v })
			}
		}
	}
	return qr
}

func buildReport(base string, names []string, elapsed time.Duration, st *stats, chaosLog func() []chaosExec, spawned bool) *report {
	rep := &report{Addr: base, Streams: names, DurationS: elapsed.Seconds(), Spawned: spawned}
	rep.Ingest.Requests = st.ingestReq.Load()
	rep.Ingest.RecordsAcked = st.recordsAcked.Load()
	rep.Ingest.HTTP200 = st.http200.Load()
	rep.Ingest.HTTP429 = st.http429.Load()
	rep.Ingest.HTTP503 = st.http503.Load()
	rep.Ingest.HTTP4xx = st.http4xx.Load()
	rep.Ingest.HTTP5xx = st.http5xx.Load()
	rep.Ingest.NetErrors = st.netErrors.Load()
	rep.Ingest.RecordsPerSec = float64(rep.Ingest.RecordsAcked) / elapsed.Seconds()
	rep.Ingest.Latency = latJSON(&st.ingestLat)
	rep.Query.Requests = st.queryReq.Load()
	rep.Query.HTTP200 = st.query200.Load()
	rep.Query.Errors = st.queryErr.Load()
	rep.Query.Latency = latJSON(&st.queryLat)
	rep.Events.Received = st.eventsReceived.Load()
	rep.Events.Drops = st.subscriberDrops.Load()
	rep.Events.ChurnCycles = st.churnCycles.Load()
	rep.Events.Resumes = st.resumes.Load()
	rep.Chaos = chaosLog()
	return rep
}
