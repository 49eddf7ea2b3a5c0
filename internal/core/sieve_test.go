package core

import (
	"math"
	"math/rand"
	"testing"

	"tdnstream/internal/ids"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
	"tdnstream/internal/testutil"
)

func pairsOf(in []stream.Interaction) []Pair {
	out := make([]Pair, len(in))
	for i, x := range in {
		out[i] = Pair{x.Src, x.Dst}
	}
	return out
}

func TestSieveEmpty(t *testing.T) {
	s := NewSieve(3, 0.1, nil)
	if got := s.Solution(); len(got.Seeds) != 0 || got.Value != 0 {
		t.Fatalf("empty sieve solution = %+v", got)
	}
	if s.Value() != 0 {
		t.Fatal("empty sieve Value != 0")
	}
}

func TestSieveValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSieve(0, 0.1, nil) },
		func() { NewSieve(1, 0, nil) },
		func() { NewSieve(1, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// k=1 on a star: the sieve must identify the hub, whose spread is the
// whole star.
func TestSieveStarHub(t *testing.T) {
	s := NewSieve(1, 0.1, nil)
	var batch []Pair
	for leaf := ids.NodeID(1); leaf <= 20; leaf++ {
		batch = append(batch, Pair{0, leaf})
	}
	s.Feed(batch)
	sol := s.Solution()
	if len(sol.Seeds) != 1 || sol.Seeds[0] != 0 {
		t.Fatalf("seeds = %v, want [0]", sol.Seeds)
	}
	if sol.Value != 21 {
		t.Fatalf("value = %d, want 21", sol.Value)
	}
}

// Two disjoint stars, k=2: both hubs must be selected even when fed
// incrementally across many batches.
func TestSieveTwoStarsIncremental(t *testing.T) {
	s := NewSieve(2, 0.1, nil)
	for i := 0; i < 10; i++ {
		s.Feed([]Pair{
			{0, ids.NodeID(10 + i)},
			{1, ids.NodeID(40 + i)},
		})
	}
	sol := s.Solution()
	if sol.Value != 22 {
		t.Fatalf("value = %d, want 22 (both hubs)", sol.Value)
	}
	if len(sol.Seeds) != 2 || sol.Seeds[0] != 0 || sol.Seeds[1] != 1 {
		t.Fatalf("seeds = %v, want [0 1]", sol.Seeds)
	}
}

// Theorem 3: |Θ| = O(ε⁻¹ log k). The window [Δ, 2kΔ] contains
// log_{1+ε}(2k)+1 powers regardless of Δ.
func TestSieveThresholdCount(t *testing.T) {
	for _, tc := range []struct {
		k   int
		eps float64
	}{{1, 0.1}, {10, 0.1}, {10, 0.2}, {50, 0.05}, {100, 0.3}} {
		s := NewSieve(tc.k, tc.eps, nil)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 40; i++ {
			u := ids.NodeID(rng.Intn(50))
			v := ids.NodeID(rng.Intn(50))
			if u != v {
				s.Feed([]Pair{{u, v}})
			}
		}
		bound := int(math.Ceil(math.Log(float64(2*tc.k))/math.Log1p(tc.eps))) + 2
		if s.NumThresholds() > bound {
			t.Fatalf("k=%d eps=%g: |Θ| = %d exceeds bound %d", tc.k, tc.eps, s.NumThresholds(), bound)
		}
		if s.NumThresholds() == 0 {
			t.Fatalf("k=%d eps=%g: no thresholds despite Δ>0", tc.k, tc.eps)
		}
	}
}

// The threshold window invariant: every kept exponent i satisfies
// (1+ε)^i ∈ [Δ, 2kΔ].
func TestSieveExpRangeWindow(t *testing.T) {
	s := NewSieve(10, 0.15, nil)
	for _, delta := range []int{1, 2, 3, 7, 50, 1234} {
		s.delta = delta
		lo, hi := s.expRange()
		if lo > hi {
			t.Fatalf("Δ=%d: empty window [%d,%d]", delta, lo, hi)
		}
		base := 1 + s.eps
		if math.Pow(base, float64(lo)) < float64(delta) {
			t.Fatalf("Δ=%d: (1+ε)^lo = %g < Δ", delta, math.Pow(base, float64(lo)))
		}
		if lo > 0 && math.Pow(base, float64(lo-1)) >= float64(delta) {
			t.Fatalf("Δ=%d: lo not minimal", delta)
		}
		if math.Pow(base, float64(hi)) > float64(2*s.k*delta) {
			t.Fatalf("Δ=%d: (1+ε)^hi = %g > 2kΔ", delta, math.Pow(base, float64(hi)))
		}
		if math.Pow(base, float64(hi+1)) <= float64(2*s.k*delta) {
			t.Fatalf("Δ=%d: hi not maximal", delta)
		}
	}
}

// Candidate reach sets must always equal f(S) computed from scratch —
// i.e. the incremental maintenance is exact.
func TestSieveCandidateValuesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSieve(3, 0.2, nil)
	adj := make(map[ids.NodeID][]ids.NodeID)
	for step := 0; step < 60; step++ {
		var batch []Pair
		for i := 0; i < 1+rng.Intn(3); i++ {
			u := ids.NodeID(rng.Intn(25))
			v := ids.NodeID(rng.Intn(25))
			if u == v {
				continue
			}
			batch = append(batch, Pair{u, v})
			adj[u] = append(adj[u], v)
		}
		s.Feed(batch)
		for _, c := range s.cands {
			want := testutil.Reach(adj, c.members)
			if len(c.members) == 0 {
				want = 0
			}
			if c.reach.Len() != want {
				t.Fatalf("step %d: candidate exp=%d cached f(S)=%d, recomputed %d (S=%v)",
					step, c.exp, c.reach.Len(), want, c.members)
			}
		}
	}
}

// Δ must be the largest singleton spread on the graph after every Feed,
// recomputed here by brute force. The streams run from sparse chains and
// fans to one giant strongly connected component, so every rule the
// singleton pass derives spreads by gets exercised.
func TestSieveDeltaIsMaxSingleton(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(120)
		s := NewSieve(1+rng.Intn(5), 0.2, nil)
		adj := make(map[ids.NodeID][]ids.NodeID)
		for step := 0; step < 50; step++ {
			var batch []Pair
			for i := 0; i < 1+rng.Intn(6); i++ {
				u := ids.NodeID(rng.Intn(n))
				v := ids.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				batch = append(batch, Pair{u, v})
				adj[u] = append(adj[u], v)
			}
			s.Feed(batch)
			want := 0
			for u := range adj {
				want = max(want, testutil.Reach(adj, []ids.NodeID{u}))
			}
			if s.delta != want {
				t.Fatalf("seed %d step %d: Δ = %d, largest f({v}) = %d", seed, step, s.delta, want)
			}
		}
	}
}

// Theorem 2: SIEVEADN is (1/2−ε)-approximate on ADNs. Compare against
// brute-force OPT on small random streams, at every step.
func TestSieveApproximationGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, k = 12, 3
	eps := 0.1
	for trial := 0; trial < 20; trial++ {
		s := NewSieve(k, eps, nil)
		adj := make(map[ids.NodeID][]ids.NodeID)
		for step := 0; step < 25; step++ {
			var batch []Pair
			for i := 0; i < 1+rng.Intn(2); i++ {
				u := ids.NodeID(rng.Intn(n))
				v := ids.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				batch = append(batch, Pair{u, v})
				adj[u] = append(adj[u], v)
			}
			s.Feed(batch)
			if len(adj) == 0 {
				continue
			}
			opt := testutil.BruteForceOPT(adj, k)
			got := s.Solution().Value
			if float64(got) < (0.5-eps)*float64(opt) {
				t.Fatalf("trial %d step %d: value %d < (1/2-ε)·OPT = %.1f",
					trial, step, got, (0.5-eps)*float64(opt))
			}
		}
	}
}

// Duplicate edges must not change anything: f is reachability-based.
func TestSieveDuplicateEdgesNoop(t *testing.T) {
	var c1, c2 metrics.Counter
	a := NewSieve(2, 0.1, &c1)
	b := NewSieve(2, 0.1, &c2)
	batch := []Pair{{1, 2}, {2, 3}, {4, 5}}
	a.Feed(batch)
	b.Feed(batch)
	afterFeed := c2.Value()
	b.Feed(batch) // all duplicates
	if c2.Value() != afterFeed {
		t.Fatalf("duplicate batch cost %d oracle calls", c2.Value()-afterFeed)
	}
	if a.Solution().Value != b.Solution().Value {
		t.Fatal("duplicate batch changed the solution")
	}
}

func TestSieveCloneIndependence(t *testing.T) {
	s := NewSieve(2, 0.1, nil)
	s.Feed([]Pair{{1, 2}, {3, 4}})
	c := s.Clone()
	c.Feed([]Pair{{5, 6}, {4, 7}})
	if s.Graph().HasEdge(5, 6) {
		t.Fatal("feeding clone mutated original graph")
	}
	if s.Solution().Value == c.Solution().Value {
		t.Fatal("clone should have diverged after extra edges")
	}
	// Original still answers with its own state.
	if got := s.Solution().Value; got != 4 {
		t.Fatalf("original value = %d, want 4", got)
	}
}

func TestSieveCloneSharesCounter(t *testing.T) {
	var c metrics.Counter
	s := NewSieve(2, 0.1, &c)
	s.Feed([]Pair{{1, 2}})
	cl := s.Clone()
	before := c.Value()
	cl.Feed([]Pair{{2, 3}})
	if c.Value() == before {
		t.Fatal("clone's oracle calls must land in the shared counter")
	}
}

// SieveADN tracker semantics: monotone time, lifetime-agnostic.
func TestSieveADNTracker(t *testing.T) {
	tr := NewSieveADN(2, 0.1, nil)
	if err := tr.Step(5, []stream.Edge{{Src: 1, Dst: 2, T: 5, Lifetime: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(5, nil); err == nil {
		t.Fatal("repeated time accepted")
	}
	if err := tr.Step(4, nil); err == nil {
		t.Fatal("time rewind accepted")
	}
	// Lifetime 1 edge persists forever in an ADN.
	if err := tr.Step(100, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr.Solution().Value; got != 2 {
		t.Fatalf("value = %d, want 2 (edges never expire in ADN)", got)
	}
	if tr.Name() != "SieveADN" {
		t.Fatalf("Name = %q", tr.Name())
	}
	if tr.Calls().Value() == 0 {
		t.Fatal("oracle calls not counted")
	}
}

// Empty batches are free and do not disturb the solution.
func TestSieveADNEmptyStep(t *testing.T) {
	var c metrics.Counter
	tr := NewSieveADN(2, 0.1, &c)
	if err := tr.Step(1, []stream.Edge{{Src: 1, Dst: 2, T: 1, Lifetime: 1}}); err != nil {
		t.Fatal(err)
	}
	val := tr.Solution().Value
	calls := c.Value()
	if err := tr.Step(2, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Solution().Value != val {
		t.Fatal("empty step changed the solution")
	}
	if c.Value() != calls {
		t.Fatalf("empty step cost %d oracle calls", c.Value()-calls)
	}
}
