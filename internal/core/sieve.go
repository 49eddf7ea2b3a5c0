package core

import (
	"math"
	"sort"

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
	// cands is keyed by threshold exponent i (θ_i = (1+ε)^i / (2k)).
	cands map[int]*sieveCand

	// scratch reused across batches
	newPairs []influence.Endpoints
	srcSet   map[ids.NodeID]struct{}
	srcs     []ids.NodeID
	// scc is the singleton pass's scratch. A tracker feeds its instances
	// one at a time, so BasicReduction and HistApprox give all of theirs
	// one scratch, and Clone hands it on.
	scc *influence.SingletonScratch
	// candList is the slice view of cands, sorted by exponent; it is
	// rebuilt lazily only when candsDirty (thresholds entered/left the
	// window) instead of being re-snapshotted every batch.
	candList   []*sieveCand
	candsDirty bool
}

type sieveCand struct {
	exp     int
	theta   float64 // θ_exp, fixed for the candidate's life
	members []ids.NodeID
	inSet   map[ids.NodeID]struct{}
	reach   *influence.ReachSet // R(S); Len() == f(S), always current
}

func (c *sieveCand) clone() *sieveCand {
	d := &sieveCand{
		exp:     c.exp,
		theta:   c.theta,
		members: append([]ids.NodeID(nil), c.members...),
		inSet:   make(map[ids.NodeID]struct{}, len(c.inSet)),
		reach:   c.reach.Clone(),
	}
	for n := range c.inSet {
		d.inSet[n] = struct{}{}
	}
	return d
}

// NewSieve returns an empty SIEVEADN instance. k is the seed budget,
// eps the sieve granularity ε ∈ (0,1); calls is the shared oracle-call
// counter (may be nil).
func NewSieve(k int, eps float64, calls *metrics.Counter) *Sieve {
	return newSieve(k, eps, calls, new(influence.SingletonScratch))
}

// newSieve is NewSieve with the singleton pass's scratch supplied, for
// trackers whose instances share one.
func newSieve(k int, eps float64, calls *metrics.Counter, scc *influence.SingletonScratch) *Sieve {
	if k < 1 {
		panic("core: k must be ≥ 1")
	}
	if eps <= 0 || eps >= 1 {
		panic("core: eps must be in (0,1)")
	}
	g := graph.NewADN()
	return &Sieve{
		k:      k,
		eps:    eps,
		g:      g,
		oracle: influence.New(g, calls),
		cands:  make(map[int]*sieveCand),
		srcSet: make(map[ids.NodeID]struct{}),
		scc:    scc,
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
	// Add edges; only new directed pairs can change reachability.
	s.newPairs = s.newPairs[:0]
	for _, e := range batch {
		if s.g.AddEdge(e.Src, e.Dst) {
			s.newPairs = append(s.newPairs, influence.Endpoints{Src: e.Src, Dst: e.Dst})
		}
	}
	if len(s.newPairs) == 0 {
		return
	}

	// Bring every candidate's cached R(S) (hence f(S)) up to date.
	for _, c := range s.candidates() {
		s.oracle.Update(c.reach, s.newPairs)
	}

	// V̄t: nodes whose spread changed = nodes reaching any new-edge source.
	clear(s.srcSet)
	s.srcs = s.srcs[:0]
	for _, e := range s.newPairs {
		if _, dup := s.srcSet[e.Src]; !dup {
			s.srcSet[e.Src] = struct{}{}
			s.srcs = append(s.srcs, e.Src)
		}
	}
	affected := s.oracle.Affected(s.srcs)

	// Lines 4-7: refresh Δ and the lazy threshold set. The singleton
	// spreads come from one SCC pass over the affected subgraph and are
	// kept: submodularity gives δ_S(v) ≤ f({v}), which lets the sieve
	// below skip thresholds no candidate test could pass without spending
	// an oracle call (the decision is unchanged).
	singles := s.oracle.Singletons(affected, s.scc)
	for _, f := range singles {
		if f > s.delta {
			s.delta = f
		}
	}
	s.refreshThresholds()

	// Lines 8-11: sieve each affected node through every threshold. The
	// loop is serial on purpose: a node's work is at most |Θ| cheap
	// MarginalGain calls, below the cost of a goroutine fan-out, and
	// shard.Engine is the intra-stream parallelism.
	cands := s.candidates()
	for i, v := range affected {
		sv := float64(singles[i])
		for _, c := range cands {
			s.testCandidate(c, v, sv)
		}
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

// candidates returns the current candidate list sorted by exponent,
// rebuilding it only after the threshold window changed. Candidate tests
// are mutually independent, so a stable order changes no decision — it
// just makes runs deterministic and saves the per-batch re-snapshot.
func (s *Sieve) candidates() []*sieveCand {
	if s.candsDirty {
		s.candList = s.candList[:0]
		for _, c := range s.cands {
			s.candList = append(s.candList, c)
		}
		sort.Slice(s.candList, func(i, j int) bool { return s.candList[i].exp < s.candList[j].exp })
		s.candsDirty = false
	}
	return s.candList
}

// refreshThresholds drops candidates whose threshold left the window and
// creates empty candidates for thresholds that entered it (Alg. 1 line 6).
func (s *Sieve) refreshThresholds() {
	if s.delta < 1 {
		return
	}
	lo, hi := s.expRange()
	for exp := range s.cands {
		if exp < lo || exp > hi {
			delete(s.cands, exp)
			s.candsDirty = true
		}
	}
	for exp := lo; exp <= hi; exp++ {
		if _, ok := s.cands[exp]; !ok {
			s.cands[exp] = s.newCand(exp)
			s.candsDirty = true
		}
	}
}

// newCand returns an empty candidate for threshold exponent exp.
func (s *Sieve) newCand(exp int) *sieveCand {
	return &sieveCand{
		exp:   exp,
		theta: s.threshold(exp),
		inSet: make(map[ids.NodeID]struct{}),
		reach: influence.NewReachSet(),
	}
}

// Value returns max_θ f(S_θ) — the value of the instance's current output
// (the paper's g_t(l) for the instance at index l). Free: reach sets are
// kept current, so no oracle call is spent.
func (s *Sieve) Value() int {
	best := 0
	for _, c := range s.cands {
		if c.reach.Len() > best {
			best = c.reach.Len()
		}
	}
	return best
}

// Solution returns the best candidate set and its value (Alg. 1 line 12).
func (s *Sieve) Solution() Solution {
	var best *sieveCand
	for _, c := range s.cands {
		if best == nil || c.reach.Len() > best.reach.Len() ||
			(c.reach.Len() == best.reach.Len() && c.exp < best.exp) {
			best = c
		}
	}
	if best == nil {
		return Solution{}
	}
	return Solution{Seeds: sortedSeeds(best.members), Value: best.reach.Len()}
}

// Clone copies the instance — graph, candidates, Δ — sharing only the
// oracle-call counter and the singleton pass's scratch. The graph copy
// is copy-on-write (see graph.ADN.Clone) and each candidate's reach set
// clones with one word-array copy, so the whole operation is
// O(nodes + |Θ|·(nodes/64 + k)) rather than O(edges). HISTAPPROX uses
// this to create an instance from its successor (paper Fig. 6c).
func (s *Sieve) Clone() *Sieve {
	g := s.g.Clone()
	c := &Sieve{
		k:          s.k,
		eps:        s.eps,
		g:          g,
		oracle:     influence.New(g, s.oracle.Calls()),
		delta:      s.delta,
		cands:      make(map[int]*sieveCand, len(s.cands)),
		srcSet:     make(map[ids.NodeID]struct{}),
		scc:        s.scc,
		candsDirty: true,
	}
	for exp, cand := range s.cands {
		c.cands[exp] = cand.clone()
	}
	return c
}
