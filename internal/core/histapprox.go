package core

import (
	"sort"

	"tdnstream/internal/graph"
	"tdnstream/internal/influence"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
)

// HistApprox is the Tracker of paper Alg. 3. It maintains only a sparse
// set of SIEVEADN instances — a histogram over lifetime indices — and
// kills instances that are ε-redundant (Definition 4), preserving the
// smooth-histogram property (Theorem 6) that yields the (1/3 − ε)
// guarantee (Theorem 7) while cutting update cost to
// O(b(γ+1)ε⁻² log² k) per batch (Theorem 8).
//
// Like BasicReduction, instances are keyed by termination deadline d
// (index at time t is d − t); the histogram index set x_t is the sorted
// deadline list.
//
// With RefineHead enabled, the head instance is cloned at query time and
// fed the live edges it never processed (those with remaining lifetime
// below its index), restoring the (1/2 − ε) guarantee — the modification
// suggested in the paper's remark after Theorem 8.
type HistApprox struct {
	k     int
	eps   float64
	L     int
	calls *metrics.Counter

	// RefineHead enables the exact-head query refinement (1/2 − ε).
	RefineHead bool

	t     int64
	begun bool
	insts map[int64]*Sieve
	xs    []int64 // sorted instance deadlines (ascending = index ascending)

	// store holds the live edges of the global TDN, bucketed by expiry, so
	// freshly created instances can be fed their backlog (Alg. 3 line 15).
	store *graph.TDN

	// kills counts instances removed by reduceRedundancy over the tracker's
	// lifetime (not instances that merely reached their deadline).
	kills uint64

	// Per-lifetime batch grouping scratch. The map is keyed afresh each
	// step (lifetime classes vary batch to batch), so retired group slices
	// park on groupPool and are handed back to whichever classes the next
	// batch contains — steady-state steps allocate no per-class slices.
	groups    map[int][]stream.Edge
	groupPool [][]stream.Edge
	lifetimes []int // sorted lifetime classes of the current batch, reused

	// scc is the singleton-pass scratch every instance shares: instances
	// are fed one at a time, and clones inherit it.
	scc *influence.SingletonScratch
}

// NewHistApprox returns a HISTAPPROX tracker with budget k, granularity
// eps (used both for the sieve thresholds and for histogram redundancy)
// and maximum lifetime L. Edges with longer lifetimes are clamped to L.
func NewHistApprox(k int, eps float64, L int, calls *metrics.Counter) *HistApprox {
	if L < 1 {
		panic("core: HistApprox needs L ≥ 1")
	}
	if calls == nil {
		calls = &metrics.Counter{}
	}
	return &HistApprox{
		k:      k,
		eps:    eps,
		L:      L,
		calls:  calls,
		insts:  make(map[int64]*Sieve),
		groups: make(map[int][]stream.Edge),
		scc:    new(influence.SingletonScratch),
	}
}

// Step implements Tracker.
func (h *HistApprox) Step(t int64, edges []stream.Edge) error {
	if err := checkStep(h.t, t, !h.begun); err != nil {
		return err
	}
	if !h.begun {
		h.begun = true
		h.store = graph.NewTDN(t - 1)
	}
	h.t = t

	// Advance the clock: expire stored edges, terminate dead instances.
	if err := h.store.AdvanceTo(t); err != nil {
		return err
	}
	for d := range h.insts {
		if d <= t {
			delete(h.insts, d)
		}
	}
	h.xs = h.xs[:0]
	for d := range h.insts {
		h.xs = append(h.xs, d)
	}
	sort.Slice(h.xs, func(i, j int) bool { return h.xs[i] < h.xs[j] })

	if len(edges) == 0 {
		return nil
	}

	// Group the batch by (clamped) lifetime; process groups in ascending
	// lifetime order (Alg. 3 line 3). Group slices come from groupPool.
	for l, g := range h.groups {
		h.groupPool = append(h.groupPool, g[:0])
		delete(h.groups, l)
	}
	h.lifetimes = h.lifetimes[:0]
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		l := e.Lifetime
		if l > h.L {
			l = h.L
			e.Lifetime = h.L
		}
		if l < 1 {
			continue
		}
		g, seen := h.groups[l]
		if !seen {
			h.lifetimes = append(h.lifetimes, l)
			if n := len(h.groupPool); n > 0 {
				g = h.groupPool[n-1]
				h.groupPool[n-1] = nil
				h.groupPool = h.groupPool[:n-1]
			}
		}
		h.groups[l] = append(g, e)
	}
	sort.Ints(h.lifetimes)

	for _, l := range h.lifetimes {
		h.processGroup(l, h.groups[l])
	}

	// Only now admit the batch into the store: backlog feeds during group
	// processing must see past edges only (current groups are routed by
	// the group loop itself, so adding earlier would double-feed).
	for _, l := range h.lifetimes {
		for _, e := range h.groups[l] {
			if err := h.store.Add(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// processGroup is Alg. 3 ProcessEdges(Ē_t^(l)).
func (h *HistApprox) processGroup(l int, group []stream.Edge) {
	d := h.t + int64(l)
	if _, ok := h.insts[d]; !ok {
		h.createInstance(d)
	}
	// Feed the group to every instance with index ≤ l (deadline ≤ d).
	eps := endpointsOf(group)
	for _, dd := range h.xs {
		if dd > d {
			break
		}
		h.insts[dd].Feed(eps)
	}
	h.reduceRedundancy()
}

// createInstance inserts a new instance at deadline d (Alg. 3 lines 9-16):
// either fresh (no successor) or a successor clone fed its backlog — the
// live edges with expiry in [d, successor deadline).
func (h *HistApprox) createInstance(d int64) {
	// Successor: smallest kept deadline > d.
	succIdx := sort.Search(len(h.xs), func(i int) bool { return h.xs[i] > d })
	var inst *Sieve
	if succIdx == len(h.xs) {
		inst = newSieve(h.k, h.eps, h.calls, h.scc)
	} else {
		succ := h.xs[succIdx]
		inst = h.insts[succ].Clone()
		var backlog []Pair
		h.store.ForEachEdgeExpiringIn(d, succ, func(e stream.Edge) {
			backlog = append(backlog, Pair{e.Src, e.Dst})
		})
		if len(backlog) > 0 {
			inst.Feed(backlog)
		}
	}
	h.insts[d] = inst
	h.xs = append(h.xs, 0)
	copy(h.xs[succIdx+1:], h.xs[succIdx:])
	h.xs[succIdx] = d
}

// reduceRedundancy is Alg. 3 lines 19-22: for each kept index i, find the
// largest kept j > i with g(j) ≥ (1−ε)g(i) and kill everything strictly
// between them.
func (h *HistApprox) reduceRedundancy() {
	for i := 0; i < len(h.xs); i++ {
		gi := float64(h.insts[h.xs[i]].Value())
		best := -1
		for j := len(h.xs) - 1; j > i; j-- {
			if float64(h.insts[h.xs[j]].Value()) >= (1-h.eps)*gi {
				best = j
				break
			}
		}
		if best > i+1 {
			for m := i + 1; m < best; m++ {
				delete(h.insts, h.xs[m])
				h.kills++
			}
			h.xs = append(h.xs[:i+1], h.xs[best:]...)
		}
	}
}

// Solution implements Tracker: the output of the head instance A_{x1}
// (Alg. 3 line 4), optionally refined with its unprocessed short-lifetime
// edges when RefineHead is set.
func (h *HistApprox) Solution() Solution {
	if len(h.xs) == 0 {
		return Solution{}
	}
	head := h.xs[0]
	inst := h.insts[head]
	if h.RefineHead && head > h.t+1 {
		// The head missed live edges with remaining lifetime < head-t.
		var missed []Pair
		h.store.ForEachEdgeExpiringIn(h.t+1, head, func(e stream.Edge) {
			missed = append(missed, Pair{e.Src, e.Dst})
		})
		if len(missed) > 0 {
			refined := inst.Clone()
			refined.Feed(missed)
			return refined.Solution()
		}
	}
	return inst.Solution()
}

// Calls implements Tracker.
func (h *HistApprox) Calls() *metrics.Counter { return h.calls }

// Name implements Tracker.
func (h *HistApprox) Name() string {
	if h.RefineHead {
		return "HistApprox+refine"
	}
	return "HistApprox"
}

// Now returns the time of the most recent step (0 before any data). A
// restored tracker resumes from here: the next step must use a later time.
func (h *HistApprox) Now() int64 { return h.t }

// NumInstances reports how many instances the histogram currently keeps
// (tested against the O(ε⁻¹ log k) bound of Theorem 8).
func (h *HistApprox) NumInstances() int { return len(h.insts) }

// Indices returns the current histogram indices x_t = {d − t : d kept}.
func (h *HistApprox) Indices() []int {
	out := make([]int, len(h.xs))
	for i, d := range h.xs {
		out[i] = int(d - h.t)
	}
	return out
}

// InstanceAt exposes the instance with index idx at the current time
// (nil if absent); used by invariant tests.
func (h *HistApprox) InstanceAt(idx int) *Sieve { return h.insts[h.t+int64(idx)] }

// Store exposes the live-edge store (read-only use in tests).
func (h *HistApprox) Store() *graph.TDN { return h.store }

// LiveGraph exposes the current live graph G_t — the edge store, which
// holds exactly the unexpired edges — for external oracle evaluations
// (the shard merge layer). Nil before any data.
func (h *HistApprox) LiveGraph() influence.Graph {
	if h.store == nil {
		return nil
	}
	return h.store
}
