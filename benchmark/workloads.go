package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"tdnstream"
	"tdnstream/internal/datasets"
	"tdnstream/internal/ids"
	"tdnstream/internal/server"
	"tdnstream/internal/stream"
)

const (
	// batchSize is the number of records in one ingest request.
	batchSize = 100
	// Every stream tracks the top k=10 at ε=0.2, and every record gets a
	// lifetime from the paper's §V setting, Geo(0.001) truncated at
	// L=10K (SieveADN streams draw them too and ignore them).
	topK    = 10
	eps     = 0.2
	maxLife = 10_000
	decayP  = 0.001
	// zipfNodes and zipfS are influtrack-loadgen's default node mix.
	zipfNodes = 50_000
	zipfS     = 1.1
)

// workload is one seeded traffic mix: the dataset that feeds it, the
// stream spec that tracks it, and how the closed loop paces it.
type workload struct {
	name     string
	gen      func(n int, seed int64) []stream.Interaction
	algo     string
	timeMode string
	// window is W, the most request batches the producer keeps sent but
	// not yet visible in a /v1/topk answer. It stays below the daemon's
	// 256-chunk queue, so no request is refused.
	window int
	// pollEvery is the poller's pause between /v1/topk answers.
	pollEvery time.Duration
	// recPerSec sizes the input to --seconds of this nominal rate, the
	// rate the workload runs at end to end on a 2-core machine, so a run
	// measures for about that long.
	recPerSec int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why
// each is there. The loop is closed rather than paced at fixed rates
// because per-batch tracker cost spans ~0.2 ms to ~150 ms across them and
// grows within grow-zipf: a fixed rate would leave one idle and push
// another into 429s, while the window measures capacity, and freshness at
// capacity, with nothing refused.
var workloads = []workload{
	{
		// Repeat pairs saturate the ADN, so the tracker costs ~2 µs a
		// record and the serving stack sets the pace. W is deep enough
		// that the producer waits only on acks.
		name: "serve-brightkite", gen: brightkite,
		algo: "sieveadn", timeMode: server.TimeArrival,
		window: 64, pollEvery: 200 * time.Microsecond, recPerSec: 110_000,
	},
	{
		// A dense ADN that only grows: each batch's affected set covers
		// most of the graph, so Sieve's singleton refresh dominates and
		// the step cost grows batch by batch. The deep queue also
		// exercises the throttled engine-stats refresh.
		name: "grow-zipf", gen: zipfMix,
		algo: "sieveadn", timeMode: server.TimeArrival,
		window: 24, pollEvery: 2 * time.Millisecond, recPerSec: 1_300,
	},
	{
		// HistApprox over one interaction per timestamp, so one request
		// is 100 tracker steps. A window of 2 keeps the queue near empty,
		// which puts the per-publish stats walk and notify diff on the
		// path.
		name: "decay-higgs", gen: twitterHiggs,
		algo: "histapprox", timeMode: server.TimeEvent,
		window: 2, pollEvery: 2 * time.Millisecond, recPerSec: 2_100,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spec is the stream the workload runs on, seeded like its inputs.
func (w workload) spec(seed int64) server.StreamSpec {
	return server.StreamSpec{
		Name:     "bench",
		Tracker:  tdnstream.TrackerSpec{Algo: w.algo, K: topK, Eps: eps, L: maxLife, Seed: seed},
		Lifetime: tdnstream.LifetimeSpec{Policy: "geometric", P: decayP, L: maxLife, Seed: seed},
		TimeMode: w.timeMode,
	}
}

// streamFlag renders a spec as influtrackd's -stream flag value.
func streamFlag(s server.StreamSpec) string {
	return fmt.Sprintf("name=%s,algo=%s,k=%d,eps=%g,L=%d,lifetime=%s,p=%g,seed=%d,time=%s,shards=%d",
		s.Name, s.Tracker.Algo, s.Tracker.K, s.Tracker.Eps, s.Tracker.L,
		s.Lifetime.Policy, s.Lifetime.P, s.Tracker.Seed, s.TimeMode, s.Tracker.Shards)
}

func brightkite(n int, seed int64) []stream.Interaction {
	cfg := datasets.Brightkite(int64(n))
	cfg.Seed = seed
	return datasets.Checkin(cfg)
}

func twitterHiggs(n int, seed int64) []stream.Interaction {
	cfg := datasets.TwitterHiggs(int64(n))
	cfg.Seed = seed
	return datasets.Retweet(cfg)
}

// zipfMix draws n interactions the way influtrack-loadgen does: both
// endpoints from one zipf popularity mix, self-loops redrawn.
func zipfMix(n int, seed int64) []stream.Interaction {
	mix := datasets.NewZipfMix(zipfNodes, zipfS, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	out := make([]stream.Interaction, n)
	for i := range out {
		src, dst := mix.Pick(), mix.Pick()
		if src == dst {
			dst = (dst + 1 + rng.Intn(zipfNodes-1)) % zipfNodes
		}
		out[i] = stream.Interaction{Src: ids.NodeID(src), Dst: ids.NodeID(dst), T: int64(i + 1)}
	}
	return out
}

// input is a workload's request batches, built before the daemon starts:
// the NDJSON bodies the producer sends, and the same records interned in
// first-seen order — the order the daemon interns them in, so node ids,
// and with them every tie-break, match the daemon's.
type input struct {
	dict    *ids.Dict
	batches [][]stream.Interaction // T is the step the daemon gives each record
	bodies  [][]byte
	cum     []int // records through each batch
}

func buildInput(w workload, n int, seed int64) *input {
	raw := w.gen(n, seed)
	in := &input{dict: ids.NewDict()}
	rows := make([]stream.Interaction, len(raw))
	for lo := 0; lo < len(raw); lo += batchSize {
		hi := min(lo+batchSize, len(raw))
		b := len(in.batches)
		body := make([]byte, 0, (hi-lo)*48)
		for i := lo; i < hi; i++ {
			src, dst := nodeLabel(raw[i].Src), nodeLabel(raw[i].Dst)
			body = append(body, `{"src":"`...)
			body = append(body, src...)
			body = append(body, `","dst":"`...)
			body = append(body, dst...)
			t := raw[i].T
			if w.timeMode == server.TimeArrival {
				// Arrival-mode records carry no time: the daemon makes each
				// request one step, numbered from 1.
				t = int64(b + 1)
				body = append(body, `"}`...)
			} else {
				body = append(body, `","t":`...)
				body = strconv.AppendInt(body, t, 10)
				body = append(body, '}')
			}
			body = append(body, '\n')
			rows[i] = stream.Interaction{Src: in.dict.ID(src), Dst: in.dict.ID(dst), T: t}
		}
		in.batches = append(in.batches, rows[lo:hi])
		in.bodies = append(in.bodies, body)
		in.cum = append(in.cum, hi)
	}
	return in
}

// prefix is the input cut to its first n batches.
func (in *input) prefix(n int) *input {
	return &input{dict: in.dict, batches: in.batches[:n], bodies: in.bodies[:n], cum: in.cum[:n]}
}

// records is the input's size.
func (in *input) records() int {
	if len(in.cum) == 0 {
		return 0
	}
	return in.cum[len(in.cum)-1]
}

func nodeLabel(id ids.NodeID) string { return "n" + strconv.FormatUint(uint64(id), 10) }
