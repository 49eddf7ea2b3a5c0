package core

import (
	"sort"

	"tdnstream/internal/influence"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
)

// BasicReduction is the Tracker of paper Alg. 2: it maintains L staggered
// SIEVEADN instances. The instance at index i (at time t) has processed
// exactly the live edges whose remaining lifetime is ≥ i, so the head
// instance (index 1) has processed exactly E_t and its output inherits the
// (1/2 − ε) guarantee (Theorem 4).
//
// Instead of physically renaming instances every step (paper Fig. 4b), an
// instance is keyed by its termination deadline d; its index at time t is
// d − t. Shifting becomes a no-op and termination is dropping d ≤ t.
type BasicReduction struct {
	k     int
	eps   float64
	L     int
	calls *metrics.Counter

	t     int64
	begun bool
	insts map[int64]*Sieve // deadline -> instance

	scratch []stream.Edge // lifetime-sorted batch, reused
	// scc is the singleton-pass scratch every instance shares: Step
	// feeds them one at a time.
	scc *influence.SingletonScratch
}

// NewBasicReduction returns a BASICREDUCTION tracker with budget k, sieve
// granularity eps and maximum lifetime L ≥ 1. Edges with longer assigned
// lifetimes are clamped to L, matching the model's upper bound.
func NewBasicReduction(k int, eps float64, L int, calls *metrics.Counter) *BasicReduction {
	if L < 1 {
		panic("core: BasicReduction needs L ≥ 1")
	}
	if calls == nil {
		calls = &metrics.Counter{}
	}
	return &BasicReduction{k: k, eps: eps, L: L, calls: calls, insts: make(map[int64]*Sieve),
		scc: new(influence.SingletonScratch)}
}

// Step implements Tracker.
func (b *BasicReduction) Step(t int64, edges []stream.Edge) error {
	if err := checkStep(b.t, t, !b.begun); err != nil {
		return err
	}
	if !b.begun {
		b.begun = true
		// Lazily created below; instances for deadlines (t, t+L] start empty.
	}
	b.t = t

	// Terminate instances whose deadline has passed; create the new tail
	// instances so deadlines (t, t+L] all exist.
	for d := range b.insts {
		if d <= t {
			delete(b.insts, d)
		}
	}
	for d := t + 1; d <= t+int64(b.L); d++ {
		if _, ok := b.insts[d]; !ok {
			b.insts[d] = newSieve(b.k, b.eps, b.calls, b.scc)
		}
	}

	if len(edges) == 0 {
		return nil
	}

	// Sort the batch by lifetime descending; the instance at index i then
	// consumes the prefix with lifetime ≥ i (paper Fig. 4a).
	b.scratch = append(b.scratch[:0], edges...)
	for i := range b.scratch {
		if b.scratch[i].Lifetime > b.L {
			b.scratch[i].Lifetime = b.L
		}
	}
	sort.SliceStable(b.scratch, func(i, j int) bool {
		return b.scratch[i].Lifetime > b.scratch[j].Lifetime
	})

	for d, inst := range b.insts {
		idx := int(d - t) // instance index ∈ [1, L]
		// Prefix of edges with lifetime ≥ idx.
		n := sort.Search(len(b.scratch), func(i int) bool {
			return b.scratch[i].Lifetime < idx
		})
		if n == 0 {
			continue
		}
		inst.Feed(endpointsOf(b.scratch[:n]))
	}
	return nil
}

// Solution implements Tracker: the head instance's output (Alg. 2 line 4).
func (b *BasicReduction) Solution() Solution {
	head, ok := b.insts[b.t+1]
	if !ok {
		return Solution{}
	}
	return head.Solution()
}

// Calls implements Tracker.
func (b *BasicReduction) Calls() *metrics.Counter { return b.calls }

// Name implements Tracker.
func (b *BasicReduction) Name() string { return "BasicReduction" }

// Now returns the time of the most recent step (0 before any data). A
// restored tracker resumes from here: the next step must use a later time.
func (b *BasicReduction) Now() int64 { return b.t }

// NumInstances reports the live instance count (= L once warmed up).
func (b *BasicReduction) NumInstances() int { return len(b.insts) }

// InstanceAt exposes the instance with index idx at the current time
// (nil if absent); used by invariant tests.
func (b *BasicReduction) InstanceAt(idx int) *Sieve { return b.insts[b.t+int64(idx)] }

// LiveGraph exposes the current live graph G_t for external oracle
// evaluations (the shard merge layer): the head instance (index 1) has
// processed exactly the live edges, so its graph is G_t. Nil before any
// data.
func (b *BasicReduction) LiveGraph() influence.Graph {
	head, ok := b.insts[b.t+1]
	if !ok {
		return nil
	}
	return head.Graph()
}
