package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"tdnstream"
	"tdnstream/internal/ids"
	"tdnstream/internal/influence"
	"tdnstream/internal/server"
	"tdnstream/internal/stream"
)

// coreRun is an in-process tdnstream.Pipeline run over the batches the
// daemon acknowledged: the answer check's reference, and the ladder's
// bottom rung — the single-threaded baseline of the same job.
type coreRun struct {
	tracker  tdnstream.Tracker
	records  int
	elapsed  time.Duration
	steps    []time.Duration      // per request batch: its tracker steps
	solution []time.Duration      // per request batch: the Solution call after it
	answers  []tdnstream.Solution // per request batch
	calls    uint64               // oracle calls
	mallocs  uint64               // heap allocations
}

// runCore feeds batches through a Pipeline built from spec the way the
// daemon's worker does: one step per distinct timestamp in a request
// batch (one per batch in arrival mode), then one Solution call, since
// the daemon publishes after every chunk.
func runCore(spec server.StreamSpec, batches [][]stream.Interaction, tr *tracer) (*coreRun, error) {
	tracker, err := spec.Tracker.New()
	if err != nil {
		return nil, err
	}
	assign, err := spec.Lifetime.New()
	if err != nil {
		return nil, err
	}
	pipe := tdnstream.NewPipeline(tracker, assign)
	c := &coreRun{tracker: tracker}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, b := range batches {
		batch := tr.begin("core.batch", -1, i)
		t0 := time.Now()
		for lo := 0; lo < len(b); {
			hi := lo
			for hi < len(b) && b[hi].T == b[lo].T {
				hi++
			}
			step := tr.begin("core.step", batch, i)
			err := pipe.ObserveBatch(b[lo].T, b[lo:hi])
			tr.end(step)
			if err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
			lo = hi
		}
		t1 := time.Now()
		id := tr.begin("core.solution", batch, i)
		sol := pipe.Solution()
		tr.end(id)
		t2 := time.Now()
		tr.end(batch)
		c.steps = append(c.steps, t1.Sub(t0))
		c.solution = append(c.solution, t2.Sub(t1))
		c.answers = append(c.answers, sol)
		c.records += len(b)
	}
	c.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	c.mallocs = after.Mallocs - before.Mallocs
	c.calls = pipe.OracleCalls()
	return c, nil
}

// answerAfter is the reference answer after the first n batches.
func (c *coreRun) answerAfter(n int) tdnstream.Solution {
	if n == 0 {
		return tdnstream.Solution{}
	}
	return c.answers[n-1]
}

// final is the reference answer after every batch.
func (c *coreRun) final() tdnstream.Solution { return c.answerAfter(len(c.answers)) }

// checkAnswer compares a served answer with the in-process one after the
// same records: every record processed, the same value, and the same
// seeds once labels are mapped back to input ids. It returns the problems
// found and the served seeds as input ids.
func checkAnswer(ans topkAnswer, records int, want tdnstream.Solution, dict *ids.Dict) ([]string, []ids.NodeID) {
	var problems []string
	if ans.Processed != uint64(records) {
		problems = append(problems, fmt.Sprintf("processed %d of the %d records sent", ans.Processed, records))
	}
	if ans.Value != want.Value {
		problems = append(problems, fmt.Sprintf("value %d, in-process %d", ans.Value, want.Value))
	}
	served := make([]ids.NodeID, 0, len(ans.Seeds))
	for _, s := range ans.Seeds {
		id, ok := dict.Lookup(s.Label)
		if !ok {
			problems = append(problems, fmt.Sprintf("seed %q is not an input node", s.Label))
			continue
		}
		served = append(served, id)
	}
	got, exp := slices.Clone(served), slices.Clone(want.Seeds)
	slices.Sort(got)
	slices.Sort(exp)
	if !slices.Equal(got, exp) {
		problems = append(problems, fmt.Sprintf("seeds %v, in-process %v", got, exp))
	}
	return problems, served
}

// liveGraph is a tracker's current live graph: the ADN, the TDN edge
// store, or for a sharded engine the union of its partitions' graphs.
func liveGraph(tr tdnstream.Tracker) influence.Graph {
	if lg, ok := tr.(interface{ LiveGraph() influence.Graph }); ok {
		return lg.LiveGraph()
	}
	return nil
}

// spreadOf is the benchmark's own influence oracle: f_t(seeds), the
// number of nodes reachable from the seeds in g, by a plain breadth-first
// search that shares no code with internal/influence.
func spreadOf(g influence.Graph, seeds []ids.NodeID) int {
	if g == nil {
		return 0
	}
	seen := make(map[ids.NodeID]bool)
	var queue []ids.NodeID
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.OutNeighbors(u, func(v ids.NodeID) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		})
	}
	return len(seen)
}
