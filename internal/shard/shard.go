// Package shard is the partitioned tracking engine: it turns one logical
// interaction stream into P independent tracker partitions plus a merge
// layer, so a single hot stream can use every core of the machine instead
// of saturating one tracker goroutine.
//
// An Engine hash-partitions each arriving batch by source node and fans
// the timestamp-aligned sub-batches out to P tracker instances — each
// with its own graph, oracle and sieve state — whose Steps run
// concurrently. Partitioning by source keeps a node's entire
// out-neighborhood inside one partition, so the per-partition trackers
// still identify high-influence sources; only multi-hop reachability is
// truncated at partition boundaries. Queries greedily merge the
// per-shard candidate top-k sets into a global size-k solution (see
// merge.go), the candidate-union composition used by Yang et al.
// (arXiv:1602.04490) and its top-k successor (arXiv:1803.01499) to keep
// quality bounds while splitting work.
//
// The Engine implements core.Tracker, so everything that drives a single
// tracker — the root Pipeline, the serving layer's workers, the CLIs —
// can swap in a sharded engine without caring.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"tdnstream/internal/core"
	"tdnstream/internal/ids"
	"tdnstream/internal/influence"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
)

// MaxShards bounds the partition count: shard counts arrive from
// untrusted HTTP stream specs, and each partition allocates tracker
// state up front.
const MaxShards = 1024

// LiveGrapher is what the merge layer needs from a partition tracker: a
// view of its current live influence graph G_t for oracle evaluations.
// Every tracker in this module implements it (the graph is nil before
// the tracker has seen data).
type LiveGrapher interface {
	LiveGraph() influence.Graph
}

// Factory builds the tracker for one partition. The engine calls it once
// per shard index at construction; implementations typically derive the
// tracker from a shared spec, offsetting any RNG seed by the index so
// randomized partitions decorrelate deterministically.
type Factory func(shard int) (core.Tracker, error)

// Engine is the partitioned tracking engine. It is driven exactly like a
// single tracker (it is not safe for concurrent use; concurrency lives
// inside Step), and answers Solution from a cached global merge that is
// recomputed only after new data arrived.
type Engine struct {
	k      int
	calls  *metrics.Counter
	shards []core.Tracker

	t     int64
	begun bool
	// stepped[i]/last[i] record whether and when partition i last took a
	// Step: partitions with empty sub-batches are skipped on the hot path
	// and caught up lazily at query time.
	stepped []bool
	last    []int64

	parts [][]stream.Edge // per-shard partition scratch, reused across steps
	errs  []error         // per-shard Step errors, reused across steps

	// records counts the edges routed to each partition since construction
	// — the balance signal behind the introspection skew ratio.
	records []uint64

	// Per-shard merge oracles, created lazily and retargeted at each
	// merge (partition graphs may be replaced across steps).
	oracles []*influence.Oracle

	dirty   bool
	cached  core.Solution
	explain []core.SeedContribution
}

// NewEngine builds an engine with p partitions, seed budget k, and one
// tracker per partition from factory. All partitions share the calls
// counter (pass the same counter to the factory's trackers so sub-tracker
// and merge evaluations account together; calls may be nil).
func NewEngine(p, k int, factory Factory, calls *metrics.Counter) (*Engine, error) {
	if p < 2 {
		return nil, fmt.Errorf("shard: engine needs ≥ 2 partitions (got %d)", p)
	}
	if p > MaxShards {
		return nil, fmt.Errorf("shard: %d partitions exceeds the maximum %d", p, MaxShards)
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: engine needs k ≥ 1 (got %d)", k)
	}
	if calls == nil {
		calls = &metrics.Counter{}
	}
	e := &Engine{
		k:       k,
		calls:   calls,
		shards:  make([]core.Tracker, p),
		stepped: make([]bool, p),
		last:    make([]int64, p),
		parts:   make([][]stream.Edge, p),
		errs:    make([]error, p),
		records: make([]uint64, p),
		oracles: make([]*influence.Oracle, p),
	}
	for i := range e.shards {
		tr, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", i, err)
		}
		if tr == nil {
			return nil, fmt.Errorf("shard: partition %d: factory returned no tracker", i)
		}
		if err := checkShardable(tr); err != nil {
			return nil, err
		}
		e.shards[i] = tr
	}
	return e, nil
}

// checkShardable verifies a partition tracker exposes the live-graph
// hook the merge layer scores against. (Partition clocks are aligned by
// the engine's own step bookkeeping — see syncClocks — so no clock hook
// is needed.)
func checkShardable(tr core.Tracker) error {
	if _, ok := tr.(LiveGrapher); !ok {
		return fmt.Errorf("shard: tracker %s exposes no live graph; it cannot be sharded", tr.Name())
	}
	return nil
}

// ShardOf maps a source node to its partition: every out-edge of n lands
// in the same partition, deterministically across runs and restarts (the
// quality and checkpoint guarantees depend on this being a pure
// function). The multiplier is the 64-bit golden-ratio mixing constant,
// so dense consecutive NodeIDs spread evenly.
func ShardOf(n ids.NodeID, p int) int {
	h := uint64(n) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(p))
}

// NumShards returns the partition count.
func (e *Engine) NumShards() int { return len(e.shards) }

// K returns the seed budget of the merged solution.
func (e *Engine) K() int { return e.k }

// Shards exposes the partition trackers (read-only use: tests and the
// snapshot writer).
func (e *Engine) Shards() []core.Tracker { return e.shards }

// Step implements core.Tracker: partition the batch by source node and
// run the non-empty partitions' Steps concurrently. Partitions are
// mutually independent, so the fan-out needs no locks; the engine itself
// keeps the single-caller contract every tracker has.
func (e *Engine) Step(t int64, edges []stream.Edge) error {
	if e.begun && t <= e.t {
		return fmt.Errorf("shard: time must be strictly increasing (got %d after %d)", t, e.t)
	}
	e.begun = true
	e.t = t
	e.dirty = true

	for i := range e.parts {
		e.parts[i] = e.parts[i][:0]
		e.errs[i] = nil
	}
	p := len(e.shards)
	for _, ed := range edges {
		i := ShardOf(ed.Src, p)
		e.parts[i] = append(e.parts[i], ed)
		e.records[i]++
	}

	var wg sync.WaitGroup
	for i := range e.shards {
		if len(e.parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.errs[i] = e.shards[i].Step(t, e.parts[i])
		}(i)
		e.stepped[i] = true
		e.last[i] = t
	}
	wg.Wait()
	return errors.Join(e.errs...)
}

// syncClocks catches lagging partitions up to the engine time with an
// empty Step, so expiry state (and therefore every partition's live
// graph) is aligned at time t before a merge. Skipped partitions are the
// hot-path optimization this repairs: a partition whose sub-batches were
// empty for a while must still expire its old edges before scoring.
func (e *Engine) syncClocks() {
	if !e.begun {
		return
	}
	for i, sh := range e.shards {
		if e.stepped[i] && e.last[i] >= e.t {
			continue
		}
		// The only Step error is time regression, which e.last excludes.
		_ = sh.Step(e.t, nil)
		e.stepped[i] = true
		e.last[i] = e.t
	}
}

// Solution implements core.Tracker: the global top-k, merged greedily
// from the per-partition candidate sets (see merge.go). The merge is
// cached until the next Step, so repeated queries between batches are
// free — like the single trackers, whose candidate reach sets make
// Solution cheap.
func (e *Engine) Solution() core.Solution {
	if !e.dirty {
		return e.cached
	}
	e.syncClocks()
	e.cached, e.explain = e.merge()
	e.dirty = false
	return e.cached
}

// Explain decomposes the merged solution into per-seed contributions:
// Gain is the seed's marginal merge score (summed over partitions, in
// selection order — Gains sum to the solution value), Exclusive its
// summed singleton spread. Nil before any data.
func (e *Engine) Explain() []core.SeedContribution {
	e.Solution() // refresh the cache (and e.explain) if dirty
	return e.explain
}

// Calls implements core.Tracker: the counter shared by every partition
// tracker and the merge oracles.
func (e *Engine) Calls() *metrics.Counter { return e.calls }

// Name implements core.Tracker.
func (e *Engine) Name() string {
	return fmt.Sprintf("Sharded[%d]%s", len(e.shards), e.shards[0].Name())
}

// Now returns the time of the most recent step (0 before any data). A
// restored engine resumes from here: the next step must use a later time.
func (e *Engine) Now() int64 { return e.t }

// EngineStats implements core.Sizer: the partition trackers' reports
// summed, plus the record routing counters and their skew ratio
// (max/mean; 1.0 is a perfectly balanced partition function).
func (e *Engine) EngineStats() core.Stats {
	st := core.Stats{Tracker: e.Name()}
	st.ShardRecords = append([]uint64(nil), e.records...)
	var max, total uint64
	for _, n := range e.records {
		total += n
		if n > max {
			max = n
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(e.records))
		st.ShardSkew = float64(max) / mean
	}
	for i, sh := range e.shards {
		sub, ok := core.StatsFor(sh)
		if !ok {
			continue
		}
		st.Shards = append(st.Shards, sub)
		st.Bytes += sub.Bytes
		st.Instances += sub.Instances
		st.ReductionKills += sub.ReductionKills
		st.Nodes += sub.Nodes
		st.Edges += sub.Edges
		st.ExpirySlots += sub.ExpirySlots
		st.Thresholds += sub.Thresholds
		st.ReachBytes += sub.ReachBytes
		st.ScratchBytes += sub.ScratchBytes
		st.Sketches += sub.Sketches
		if sub.MaxCandidate > st.MaxCandidate {
			st.MaxCandidate = sub.MaxCandidate
		}
		if o := e.oracles[i]; o != nil {
			st.ScratchBytes += o.ScratchBytes()
			st.Bytes += o.ScratchBytes()
		}
	}
	st.Bytes += int64(len(e.records)) * 8
	for _, part := range e.parts {
		st.Bytes += int64(cap(part)) * 24
	}
	return st
}
