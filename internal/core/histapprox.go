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
	// spare holds instances the reduce killed, expired ones and the
	// query-time refinement clones, released for createInstance and
	// Solution to clone into.
	spare []*Sieve

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

	// sc is the Feed scratch every instance shares: instances are fed one
	// at a time, and clones inherit it. pool holds the adjacency pages
	// that released instances gave back, for the family's page copies.
	sc   *feedScratch
	pool *graph.PagePool

	// Reused buffers: the pairs of the group being processed, the backlog
	// a new or refined instance is fed, and reduceRedundancy's values and
	// suffix maxima.
	pairs   []Pair
	backlog []Pair
	vals    []int
	sufMax  []int
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
		sc:     newFeedScratch(),
		pool:   new(graph.PagePool),
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
	// Their deadlines are a prefix of the sorted xs.
	if err := h.store.AdvanceTo(t); err != nil {
		return err
	}
	dead := 0
	for dead < len(h.xs) && h.xs[dead] <= t {
		h.retire(h.xs[dead])
		dead++
	}
	h.xs = append(h.xs[:0], h.xs[dead:]...)

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
	h.pairs = appendEndpoints(h.pairs[:0], group)
	for _, dd := range h.xs {
		if dd > d {
			break
		}
		h.insts[dd].Feed(h.pairs)
	}
	h.reduceRedundancy()
}

// createInstance inserts a new instance at deadline d (Alg. 3 lines 9-16):
// either fresh (no successor) or a successor clone fed its backlog — the
// live edges with expiry in [d, successor deadline). Both reuse a spare
// instance when there is one.
func (h *HistApprox) createInstance(d int64) {
	// Successor: smallest kept deadline > d.
	succIdx := sort.Search(len(h.xs), func(i int) bool { return h.xs[i] > d })
	var inst *Sieve
	if succIdx == len(h.xs) {
		inst = h.takeSpare()
		if inst == nil {
			inst = newSieve(h.k, h.eps, h.calls, h.sc, h.pool)
		}
	} else {
		succ := h.xs[succIdx]
		inst = h.cloneOf(h.insts[succ])
		if backlog := h.expiringIn(d, succ); len(backlog) > 0 {
			inst.Feed(backlog)
		}
	}
	h.insts[d] = inst
	h.xs = append(h.xs, 0)
	copy(h.xs[succIdx+1:], h.xs[succIdx:])
	h.xs[succIdx] = d
}

// expiringIn returns the live edges whose expiry lies in [lo, hi), in a
// buffer the next call reuses.
func (h *HistApprox) expiringIn(lo, hi int64) []Pair {
	h.backlog = h.backlog[:0]
	h.store.ForEachEdgeExpiringIn(lo, hi, func(e stream.Edge) {
		h.backlog = append(h.backlog, Pair{e.Src, e.Dst})
	})
	return h.backlog
}

// cloneOf returns a clone of src, built in a spare instance's storage
// when there is one.
func (h *HistApprox) cloneOf(src *Sieve) *Sieve {
	if inst := h.takeSpare(); inst != nil {
		src.cloneInto(inst)
		return inst
	}
	return src.Clone()
}

// takeSpare returns a released, empty instance, or nil.
func (h *HistApprox) takeSpare() *Sieve {
	n := len(h.spare)
	if n == 0 {
		return nil
	}
	inst := h.spare[n-1]
	h.spare[n-1] = nil
	h.spare = h.spare[:n-1]
	return inst
}

// release empties inst and keeps it for reuse. Releasing its graph at
// once matters beyond the reuse: a page it shared with a neighbour stops
// being shared, so the neighbour's next write there needs no copy.
func (h *HistApprox) release(inst *Sieve) {
	inst.release()
	h.spare = append(h.spare, inst)
}

// retire removes the instance at deadline d from the map and releases it;
// the caller removes d from xs.
func (h *HistApprox) retire(d int64) {
	h.release(h.insts[d])
	delete(h.insts, d)
}

// reduceRedundancy is Alg. 3 lines 19-22: for each kept index i, find the
// largest kept j > i with g(j) ≥ (1−ε)g(i) and kill everything strictly
// between them. Each instance's value is read once. A kill only removes
// indices between i and j, so the survivors after i are the original
// indices from j on, and the suffix maxima over the original list stay
// exact for them: the largest j with g(j) ≥ θ is the last index whose
// suffix maximum reaches θ, found by binary search since suffix maxima
// never increase.
func (h *HistApprox) reduceRedundancy() {
	n := len(h.xs)
	if n < 3 {
		return
	}
	vals := h.vals[:0]
	for _, d := range h.xs {
		vals = append(vals, h.insts[d].Value())
	}
	suf := append(h.sufMax[:0], vals...)
	for j := n - 2; j >= 0; j-- {
		suf[j] = max(suf[j], suf[j+1])
	}
	h.vals, h.sufMax = vals, suf

	kept := 0
	for i := 0; i < n; {
		h.xs[kept] = h.xs[i]
		kept++
		theta := (1 - h.eps) * float64(vals[i])
		lo, hi := i+1, n // first j > i whose suffix maximum is below θ
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if float64(suf[m]) >= theta {
				lo = m + 1
			} else {
				hi = m
			}
		}
		best := lo - 1
		if best <= i+1 {
			i++
			continue
		}
		for _, d := range h.xs[i+1 : best] {
			h.retire(d)
			h.kills++
		}
		i = best
	}
	h.xs = h.xs[:kept]
}

// Solution implements Tracker: the output of the head instance A_{x1}
// (Alg. 3 line 4), optionally refined with its unprocessed short-lifetime
// edges when RefineHead is set. The refinement feeds a clone of the head,
// which is released once it has answered.
func (h *HistApprox) Solution() Solution {
	if len(h.xs) == 0 {
		return Solution{}
	}
	head := h.xs[0]
	inst := h.insts[head]
	if h.RefineHead && head > h.t+1 {
		// The head missed live edges with remaining lifetime < head-t.
		if missed := h.expiringIn(h.t+1, head); len(missed) > 0 {
			refined := h.cloneOf(inst)
			refined.Feed(missed)
			sol := refined.Solution()
			h.release(refined)
			return sol
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
