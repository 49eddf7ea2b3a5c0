package core

import (
	"math"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
	"tdnstream/internal/influence"
	"tdnstream/internal/metrics"
)

// Sieve is one SIEVEADN instance (paper Alg. 1): a threshold sieve over
// the stream of nodes whose influence spread changed, evaluated on the
// instance's own addition-only graph.
//
// It lazily maintains the threshold set
//
//	Θ = { (1+ε)^i/(2k) : (1+ε)^i ∈ [Δ, 2kΔ], i ∈ Z }
//
// where Δ is the maximum singleton spread seen so far. Each threshold
// owns a candidate set S_θ (≤ k nodes) with its materialized reach set
// R(S_θ), kept current incrementally; a node v from the affected-node
// stream is added to S_θ when δ_{S_θ}(v) ≥ θ.
type Sieve struct {
	k   int
	eps float64

	g      *graph.ADN
	oracle *influence.Oracle

	delta int // Δ: max singleton spread observed so far
	// value is max_θ f(S_θ), brought up to date at the end of every Feed
	// that adds an edge: reach sets only change there.
	value int
	// cands is Θ, one window of threshold exponents in ascending order:
	// cands[i] is the candidate of θ_{lo+i} (θ_i = (1+ε)^i / (2k)).
	lo    int
	cands []*sieveCand
	// next is the spare backing array refreshThresholds builds a moved
	// window in; spare keeps the candidates that left the window, and a
	// released instance's, for reuse.
	next  []*sieveCand
	spare []*sieveCand

	// sc is Feed's working memory. A tracker feeds its instances one at
	// a time, so BasicReduction and HistApprox give all of theirs one,
	// and Clone hands it on.
	sc *feedScratch
}

// feedScratch is the working memory of Sieve.Feed: the oracle's BFS
// buffers, the singleton pass's scratch, and the batch's new pairs and
// their distinct sources. Nothing in it outlives one Feed.
type feedScratch struct {
	bfs      influence.Scratch
	scc      influence.SingletonScratch
	newPairs []influence.Endpoints
	srcSet   map[ids.NodeID]struct{}
	srcs     []ids.NodeID
}

func newFeedScratch() *feedScratch {
	return &feedScratch{srcSet: make(map[ids.NodeID]struct{})}
}

type sieveCand struct {
	exp     int
	theta   float64 // θ_exp, fixed for the candidate's life
	members []ids.NodeID
	inSet   map[ids.NodeID]struct{}
	reach   *influence.ReachSet // R(S); Len() == f(S), always current
}

// cloneInto makes d a copy of c, reusing d's member slice, inSet map and
// reach words.
func (c *sieveCand) cloneInto(d *sieveCand) {
	d.exp = c.exp
	d.theta = c.theta
	d.members = append(d.members[:0], c.members...)
	clear(d.inSet)
	for n := range c.inSet {
		d.inSet[n] = struct{}{}
	}
	d.reach.CopyFrom(c.reach)
}

// NewSieve returns an empty SIEVEADN instance. k is the seed budget,
// eps the sieve granularity ε ∈ (0,1); calls is the shared oracle-call
// counter (may be nil).
func NewSieve(k int, eps float64, calls *metrics.Counter) *Sieve {
	return newSieve(k, eps, calls, newFeedScratch(), nil)
}

// newSieve is NewSieve for trackers whose instances share one Feed
// scratch, with graph pages drawn from pool (nil: the heap).
func newSieve(k int, eps float64, calls *metrics.Counter, sc *feedScratch, pool *graph.PagePool) *Sieve {
	if k < 1 {
		panic("core: k must be ≥ 1")
	}
	if eps <= 0 || eps >= 1 {
		panic("core: eps must be in (0,1)")
	}
	g := graph.NewPooledADN(pool)
	return &Sieve{
		k:      k,
		eps:    eps,
		g:      g,
		oracle: influence.NewShared(g, calls, &sc.bfs),
		sc:     sc,
	}
}

// K returns the seed budget.
func (s *Sieve) K() int { return s.k }

// Epsilon returns the sieve granularity.
func (s *Sieve) Epsilon() float64 { return s.eps }

// Graph exposes the instance's addition-only graph (read-only use).
func (s *Sieve) Graph() *graph.ADN { return s.g }

// NumThresholds reports |Θ| (tested against the O(ε⁻¹ log k) bound).
func (s *Sieve) NumThresholds() int { return len(s.cands) }

// threshold returns θ_i = (1+ε)^i / (2k).
func (s *Sieve) threshold(exp int) float64 {
	return math.Pow(1+s.eps, float64(exp)) / float64(2*s.k)
}

// expRange returns the exponent window [lo, hi] such that
// (1+ε)^i ∈ [Δ, 2kΔ]. Called with Δ ≥ 1.
func (s *Sieve) expRange() (lo, hi int) {
	base := math.Log1p(s.eps)
	lo = int(math.Ceil(math.Log(float64(s.delta)) / base))
	hi = int(math.Floor(math.Log(float64(2*s.k*s.delta)) / base))
	// Guard against float slop at the boundaries.
	for lo > 0 && math.Pow(1+s.eps, float64(lo-1)) >= float64(s.delta) {
		lo--
	}
	for math.Pow(1+s.eps, float64(lo)) < float64(s.delta) {
		lo++
	}
	for math.Pow(1+s.eps, float64(hi+1)) <= float64(2*s.k*s.delta) {
		hi++
	}
	for hi >= lo && math.Pow(1+s.eps, float64(hi)) > float64(2*s.k*s.delta) {
		hi--
	}
	return lo, hi
}

// Feed processes one batch of edges arriving together (Alg. 1 lines 2-11).
func (s *Sieve) Feed(batch []Pair) {
	sc := s.sc
	// Add edges; only new directed pairs can change reachability.
	sc.newPairs = sc.newPairs[:0]
	for _, e := range batch {
		if s.g.AddEdge(e.Src, e.Dst) {
			sc.newPairs = append(sc.newPairs, influence.Endpoints{Src: e.Src, Dst: e.Dst})
		}
	}
	if len(sc.newPairs) == 0 {
		return
	}

	// Bring every candidate's cached R(S) (hence f(S)) up to date.
	for _, c := range s.cands {
		s.oracle.Update(c.reach, sc.newPairs)
	}

	// V̄t: nodes whose spread changed = nodes reaching any new-edge source.
	clear(sc.srcSet)
	sc.srcs = sc.srcs[:0]
	for _, e := range sc.newPairs {
		if _, dup := sc.srcSet[e.Src]; !dup {
			sc.srcSet[e.Src] = struct{}{}
			sc.srcs = append(sc.srcs, e.Src)
		}
	}
	affected := s.oracle.Affected(sc.srcs)

	// Lines 4-7: refresh Δ and the lazy threshold set. The singleton
	// spreads come from one SCC pass over the affected subgraph and are
	// kept: submodularity gives δ_S(v) ≤ f({v}), which lets the sieve
	// below skip thresholds no candidate test could pass without spending
	// an oracle call (the decision is unchanged).
	singles := s.oracle.Singletons(affected, &sc.scc)
	for _, f := range singles {
		if f > s.delta {
			s.delta = f
		}
	}
	s.refreshThresholds()

	// Lines 8-11: sieve each affected node through every threshold. The
	// loop is serial on purpose: a node's work is at most |Θ| cheap
	// MarginalGain calls, below the cost of a goroutine fan-out, and
	// shard.Engine is the intra-stream parallelism. Candidate tests are
	// mutually independent, so the exponent order changes no decision; it
	// only makes runs deterministic.
	for i, v := range affected {
		sv := float64(singles[i])
		for _, c := range s.cands {
			s.testCandidate(c, v, sv)
		}
	}

	s.value = 0
	for _, c := range s.cands {
		s.value = max(s.value, c.reach.Len())
	}
}

// testCandidate applies Alg. 1 lines 9-11 for one (candidate, node) pair;
// sv is f({v}), the submodular screen bound on δ_S(v).
func (s *Sieve) testCandidate(c *sieveCand, v ids.NodeID, sv float64) {
	if len(c.members) >= s.k {
		return
	}
	if _, in := c.inSet[v]; in {
		return
	}
	if sv < c.theta {
		return // upper bound rules the test out: δ ≤ f({v}) < θ
	}
	if float64(s.oracle.MarginalGain(c.reach, v, false)) >= c.theta {
		s.oracle.MarginalGain(c.reach, v, true)
		c.members = append(c.members, v)
		c.inSet[v] = struct{}{}
	}
}

// refreshThresholds drops candidates whose threshold left the window and
// creates empty candidates for thresholds that entered it (Alg. 1 line 6).
// Δ only grows, so the window only slides up, and rarely moves at all.
func (s *Sieve) refreshThresholds() {
	if s.delta < 1 {
		return
	}
	lo, hi := s.expRange()
	if lo == s.lo && hi-lo+1 == len(s.cands) {
		return
	}
	next := s.next[:0]
	for exp := lo; exp <= hi; exp++ {
		if i := exp - s.lo; i >= 0 && i < len(s.cands) {
			next = append(next, s.cands[i])
			s.cands[i] = nil
		} else {
			next = append(next, s.newCand(exp))
		}
	}
	for i, c := range s.cands {
		if c != nil {
			s.spare = append(s.spare, c)
			s.cands[i] = nil
		}
	}
	s.cands, s.next, s.lo = next, s.cands[:0], lo
}

// newCand returns an empty candidate for threshold exponent exp.
func (s *Sieve) newCand(exp int) *sieveCand {
	c := s.takeCand()
	c.exp = exp
	c.theta = s.threshold(exp)
	c.members = c.members[:0]
	clear(c.inSet)
	c.reach.Reset()
	return c
}

// takeCand returns a spare candidate as it is, or a new empty one, for a
// caller that sets every field.
func (s *Sieve) takeCand() *sieveCand {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return c
	}
	return &sieveCand{inSet: make(map[ids.NodeID]struct{}), reach: influence.NewReachSet()}
}

// Value returns max_θ f(S_θ) — the value of the instance's current output
// (the paper's g_t(l) for the instance at index l). Free: it is kept
// current by Feed, so no oracle call is spent and no candidate is read.
func (s *Sieve) Value() int { return s.value }

// best returns the candidate with the largest f(S), the lowest exponent
// among equals, or nil when Θ is empty.
func (s *Sieve) best() *sieveCand {
	var best *sieveCand
	for _, c := range s.cands {
		if best == nil || c.reach.Len() > best.reach.Len() {
			best = c
		}
	}
	return best
}

// Solution returns the best candidate set and its value (Alg. 1 line 12).
func (s *Sieve) Solution() Solution {
	best := s.best()
	if best == nil {
		return Solution{}
	}
	return Solution{Seeds: sortedSeeds(best.members), Value: best.reach.Len()}
}

// Clone copies the instance — graph, candidates, Δ — sharing only the
// oracle-call counter and Feed's scratch. The graph copy is copy-on-write
// (see graph.ADN.Clone) and each candidate's reach set clones with one
// word-array copy, so the whole operation is
// O(nodes/64 + |Θ|·(nodes/64 + k)) rather than O(edges). HISTAPPROX uses
// this to create an instance from its successor (paper Fig. 6c).
func (s *Sieve) Clone() *Sieve {
	g := new(graph.ADN)
	c := &Sieve{g: g, oracle: influence.NewShared(g, s.oracle.Calls(), &s.sc.bfs), sc: s.sc}
	s.cloneInto(c)
	return c
}

// cloneInto makes dst what Clone would return, reusing dst's storage:
// its graph's page tables and bitset, and its candidates' member lists,
// inSet maps and reach words. dst must share s's counter and scratch, as
// every instance of one tracker does; its oracle stays bound to its own
// graph.
func (s *Sieve) cloneInto(dst *Sieve) {
	dst.release()
	s.g.CloneInto(dst.g)
	dst.k, dst.eps = s.k, s.eps
	dst.delta, dst.value, dst.lo = s.delta, s.value, s.lo
	for _, c := range s.cands {
		d := dst.takeCand()
		c.cloneInto(d)
		dst.cands = append(dst.cands, d)
	}
}

// release empties the instance for reuse: its graph's pages go back to
// the pool (or stop being counted as shared) and its candidates become
// spares. It is then an empty instance, like one newSieve returns.
func (s *Sieve) release() {
	s.g.Release()
	s.spare = append(s.spare, s.cands...)
	clear(s.cands)
	s.cands = s.cands[:0]
	s.delta, s.value, s.lo = 0, 0, 0
}
