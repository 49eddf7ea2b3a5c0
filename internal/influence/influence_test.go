package influence

import (
	"math/rand"
	"testing"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
	"tdnstream/internal/metrics"
	"tdnstream/internal/testutil"
)

// buildADN loads an adjacency map into a fresh ADN.
func buildADN(adj map[ids.NodeID][]ids.NodeID) *graph.ADN {
	g := graph.NewADN()
	for u, vs := range adj {
		for _, v := range vs {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestSpreadMatchesNaiveReach(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		adj := testutil.RandomDigraphAdjacency(rng, 20, 0.1)
		g := buildADN(adj)
		o := New(g, nil)
		for rep := 0; rep < 10; rep++ {
			var seeds []ids.NodeID
			for i := 0; i < 1+rng.Intn(3); i++ {
				seeds = append(seeds, ids.NodeID(rng.Intn(20)))
			}
			want := testutil.Reach(adj, seeds)
			got := o.Spread(seeds...)
			if got != want {
				t.Fatalf("trial %d: Spread(%v) = %d, want %d", trial, seeds, got, want)
			}
		}
	}
}

func TestSpreadEmptySeedsIsZero(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{1: {2}})
	o := New(g, nil)
	if got := o.Spread(); got != 0 {
		t.Fatalf("f(∅) = %d, want 0 (normalized)", got)
	}
}

func TestSpreadCountsSeedsOnceWithDuplicates(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{1: {2}})
	o := New(g, nil)
	if got := o.Spread(1, 1, 2); got != 2 {
		t.Fatalf("Spread(1,1,2) = %d, want 2", got)
	}
}

// Theorem 1: f_t is monotone and submodular. Property-tested on random
// digraphs: for random S ⊆ T and x ∉ T,
// f(S) ≤ f(T) and f(S∪{x})-f(S) ≥ f(T∪{x})-f(T).
func TestMonotoneSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 16
	for trial := 0; trial < 300; trial++ {
		adj := testutil.RandomDigraphAdjacency(rng, n, 0.08)
		g := buildADN(adj)
		if g.NodeCap() == 0 {
			continue
		}
		o := New(g, nil)
		// random S ⊆ T ⊆ V, x ∉ T
		var S, T []ids.NodeID
		for v := 0; v < n; v++ {
			r := rng.Float64()
			if r < 0.2 {
				S = append(S, ids.NodeID(v))
				T = append(T, ids.NodeID(v))
			} else if r < 0.4 {
				T = append(T, ids.NodeID(v))
			}
		}
		x := ids.NodeID(rng.Intn(n))
		inT := false
		for _, v := range T {
			if v == x {
				inT = true
			}
		}
		if inT {
			continue
		}
		fS := o.Spread(S...)
		fT := o.Spread(T...)
		if fS > fT {
			t.Fatalf("monotonicity violated: f(S)=%d > f(T)=%d", fS, fT)
		}
		gainS := o.Spread(append(append([]ids.NodeID{}, S...), x)...) - fS
		gainT := o.Spread(append(append([]ids.NodeID{}, T...), x)...) - fT
		if gainS < gainT {
			t.Fatalf("submodularity violated: δ_S(x)=%d < δ_T(x)=%d", gainS, gainT)
		}
	}
}

func TestFillReachSetClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := testutil.RandomDigraphAdjacency(rng, 30, 0.08)
	g := buildADN(adj)
	o := New(g, nil)
	rs := NewReachSet()
	n := o.FillReachSet(rs, 0, 1)
	if n != rs.Len() {
		t.Fatalf("returned %d but Len()=%d", n, rs.Len())
	}
	// closure: every out-neighbor of a member is a member
	rs.ForEach(func(u ids.NodeID) {
		g.OutNeighbors(u, func(v ids.NodeID) {
			if !rs.Contains(v) {
				t.Fatalf("reach set not closed: %d ∈ R but %d ∉ R", u, v)
			}
		})
	})
}

// MarginalGain must equal f(S∪{v}) − f(S) computed from scratch, for all v.
func TestMarginalGainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		adj := testutil.RandomDigraphAdjacency(rng, 18, 0.1)
		g := buildADN(adj)
		if g.NodeCap() == 0 {
			continue
		}
		o := New(g, nil)
		seeds := []ids.NodeID{ids.NodeID(rng.Intn(18)), ids.NodeID(rng.Intn(18))}
		rs := NewReachSet()
		fS := o.FillReachSet(rs, seeds...)
		for v := ids.NodeID(0); int(v) < 18; v++ {
			want := testutil.Reach(adj, append(append([]ids.NodeID{}, seeds...), v)) - fS
			got := o.MarginalGain(rs, v, false)
			if got != want {
				t.Fatalf("trial %d: δ_S(%d) = %d, want %d", trial, v, got, want)
			}
		}
	}
}

func TestMarginalGainMerge(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{1: {2}, 3: {4, 5}})
	o := New(g, nil)
	rs := NewReachSet()
	o.FillReachSet(rs, 1)
	if gain := o.MarginalGain(rs, 3, true); gain != 3 {
		t.Fatalf("gain = %d, want 3", gain)
	}
	if rs.Len() != 5 {
		t.Fatalf("after merge Len = %d, want 5", rs.Len())
	}
	// rs is now R({1,3}); marginal of 4 must be 0.
	if gain := o.MarginalGain(rs, 4, false); gain != 0 {
		t.Fatalf("gain of covered node = %d, want 0", gain)
	}
}

// Update must bring R(S) to exactly R(S) on the grown graph, and must not
// count an oracle call when no new edge source touches R(S).
func TestUpdateIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		adj := testutil.RandomDigraphAdjacency(rng, 15, 0.08)
		g := buildADN(adj)
		var c metrics.Counter
		o := New(g, &c)
		seeds := []ids.NodeID{ids.NodeID(rng.Intn(15))}
		rs := NewReachSet()
		o.FillReachSet(rs, seeds...)

		// grow the graph with a few random edges
		var eps []Endpoints
		for i := 0; i < 4; i++ {
			u := ids.NodeID(rng.Intn(15))
			v := ids.NodeID(rng.Intn(15))
			if u == v {
				continue
			}
			g.AddEdge(u, v)
			adj[u] = append(adj[u], v)
			eps = append(eps, Endpoints{Src: u, Dst: v})
		}
		before := c.Value()
		o.Update(rs, eps)
		after := c.Value()

		want := testutil.Reach(adj, seeds)
		if rs.Len() != want {
			t.Fatalf("trial %d: after Update Len = %d, want %d", trial, rs.Len(), want)
		}
		// call accounting: at most one call, and zero if nothing relevant
		calls := after - before
		if calls > 1 {
			t.Fatalf("Update cost %d calls, want ≤ 1", calls)
		}
		relevant := false
		for _, e := range eps {
			if rs.Contains(e.Src) && rs.Contains(e.Dst) {
				// could have been relevant; cannot distinguish cheaply here
			}
		}
		_ = relevant
	}
}

func TestUpdateNoRelevantEdgesIsFree(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{1: {2}, 5: {6}})
	var c metrics.Counter
	o := New(g, &c)
	rs := NewReachSet()
	o.FillReachSet(rs, 1)
	c.Reset()
	g.AddEdge(5, 7)
	if o.Update(rs, []Endpoints{{Src: 5, Dst: 7}}) {
		t.Fatal("Update grew on an irrelevant edge")
	}
	if c.Value() != 0 {
		t.Fatalf("irrelevant update cost %d calls, want 0", c.Value())
	}
}

// Affected must return exactly the nodes whose spread changed, which for
// edge insertions (u,v) is {x : u ∈ R({x})}.
func TestAffectedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		adj := testutil.RandomDigraphAdjacency(rng, 15, 0.1)
		g := buildADN(adj)
		if g.NodeCap() == 0 {
			continue
		}
		o := New(g, nil)
		src := ids.NodeID(rng.Intn(15))
		got := o.Affected([]ids.NodeID{src})
		gotSet := make(map[ids.NodeID]bool, len(got))
		for _, n := range got {
			gotSet[n] = true
		}
		for x := ids.NodeID(0); int(x) < 15; x++ {
			// does x reach src?
			reaches := false
			visited := map[ids.NodeID]bool{x: true}
			stack := []ids.NodeID{x}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if u == src {
					reaches = true
					break
				}
				for _, v := range adj[u] {
					if !visited[v] {
						visited[v] = true
						stack = append(stack, v)
					}
				}
			}
			if reaches != gotSet[x] {
				t.Fatalf("trial %d: node %d reaches %d = %v but Affected says %v",
					trial, x, src, reaches, gotSet[x])
			}
		}
	}
}

func TestOracleCallAccounting(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{1: {2}})
	var c metrics.Counter
	o := New(g, &c)
	o.Spread(1)
	rs := NewReachSet()
	o.FillReachSet(rs, 1)
	o.MarginalGain(rs, 2, false)
	if c.Value() != 3 {
		t.Fatalf("3 evaluations should count 3 calls, got %d", c.Value())
	}
	o.Affected([]ids.NodeID{1}) // bookkeeping: free
	if c.Value() != 3 {
		t.Fatalf("Affected must not count calls, got %d", c.Value())
	}
}

func TestReachSetCloneIndependent(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{1: {2, 3}})
	o := New(g, nil)
	rs := NewReachSet()
	o.FillReachSet(rs, 1)
	c := rs.Clone()
	g.AddEdge(3, 4)
	o.Update(rs, []Endpoints{{Src: 3, Dst: 4}})
	if rs.Len() != 4 || c.Len() != 3 {
		t.Fatalf("clone aliased: rs=%d clone=%d", rs.Len(), c.Len())
	}
}

func TestVisitedGrowsWithGraph(t *testing.T) {
	g := graph.NewADN()
	g.AddEdge(1, 2)
	o := New(g, nil)
	if got := o.Spread(1); got != 2 {
		t.Fatalf("Spread = %d", got)
	}
	// Much larger ids after the oracle exists: scratch must grow.
	g.AddEdge(100000, 100001)
	if got := o.Spread(100000); got != 2 {
		t.Fatalf("Spread after growth = %d", got)
	}
}

// TestOracleSteadyStateAllocatesNothing pins the package's performance
// claim: once its scratch has grown, no evaluation on a graph.ADN
// allocates.
func TestOracleSteadyStateAllocatesNothing(t *testing.T) {
	g := benchGraph(2000, 6000)
	o := New(g, nil)
	rs, grow := NewReachSet(), NewReachSet()
	o.FillReachSet(rs, 0, 1)
	var outside ids.NodeID
	for rs.Contains(outside) {
		outside++
	}
	edges := []Endpoints{{Src: 2, Dst: outside}}
	sc := new(SingletonScratch)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Spread", func() { o.Spread(3, 4) }},
		{"FillReachSet", func() { o.FillReachSet(grow, 5) }},
		{"MarginalGain", func() { o.MarginalGain(rs, outside, false) }},
		{"Update", func() { o.FillReachSet(grow, 2); o.Update(grow, edges) }},
		{"Affected", func() { o.Affected([]ids.NodeID{6, 7}) }},
		{"Singletons", func() { o.Singletons(o.Affected([]ids.NodeID{6, 7}), sc) }},
	} {
		tc.run() // grow the scratch
		if a := testing.AllocsPerRun(20, tc.run); a != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", tc.name, a)
		}
	}
}
