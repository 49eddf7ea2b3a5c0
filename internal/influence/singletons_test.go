package influence

import (
	"math/rand"
	"testing"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
	"tdnstream/internal/metrics"
)

// sccShapes builds a random ADN mixing the shapes the singleton pass
// handles by different rules: a giant SCC (a ring with chords), long
// chains leading into and out of it, DAG fans, disjoint cycles, and a few
// random edges across all of them.
func sccShapes(rng *rand.Rand) *graph.ADN {
	g := graph.NewADN()
	n := 0
	node := func() ids.NodeID { n++; return ids.NodeID(n - 1) }

	giant := make([]ids.NodeID, 2+rng.Intn(40))
	for i := range giant {
		giant[i] = node()
	}
	for i := range giant {
		g.AddEdge(giant[i], giant[(i+1)%len(giant)])
		g.AddEdge(giant[rng.Intn(len(giant))], giant[rng.Intn(len(giant))])
	}
	for c := rng.Intn(4); c > 0; c-- {
		prev, into := giant[rng.Intn(len(giant))], rng.Intn(2) == 0
		for i := 1 + rng.Intn(80); i > 0; i-- {
			v := node()
			if into {
				g.AddEdge(v, prev)
			} else {
				g.AddEdge(prev, v)
			}
			prev = v
		}
	}
	for f := rng.Intn(4); f > 0; f-- {
		hub := node()
		for i := 1 + rng.Intn(10); i > 0; i-- {
			if v := node(); rng.Intn(2) == 0 {
				g.AddEdge(hub, v)
			} else {
				g.AddEdge(v, hub)
			}
		}
	}
	for c := rng.Intn(4); c > 0; c-- {
		first := node()
		prev := first
		for i := 1 + rng.Intn(6); i > 0; i-- {
			v := node()
			g.AddEdge(prev, v)
			prev = v
		}
		g.AddEdge(prev, first)
	}
	for i := rng.Intn(n/8 + 1); i > 0; i-- {
		g.AddEdge(ids.NodeID(rng.Intn(n)), ids.NodeID(rng.Intn(n)))
	}
	return g
}

// sccCount counts the strongly connected components of the nodes given,
// by mutual reachability: a reference independent of Tarjan.
func sccCount(ref *Oracle, nodes []ids.NodeID) int {
	reach := make(map[ids.NodeID]*ReachSet, len(nodes))
	for _, v := range nodes {
		reach[v] = NewReachSet()
		ref.FillReachSet(reach[v], v)
	}
	count := 0
	counted := make(map[ids.NodeID]bool, len(nodes))
	for _, u := range nodes {
		if counted[u] {
			continue
		}
		count++
		for _, v := range nodes {
			if reach[u].Contains(v) && reach[v].Contains(u) {
				counted[v] = true
			}
		}
	}
	return count
}

// checkSingletons runs Affected then Singletons on o and checks every
// value against a plain Spread on a reference oracle, and that the calls
// charged equal the BFSes run (one generation each) and number at most
// one per affected SCC.
func checkSingletons(t *testing.T, o *Oracle, sc *SingletonScratch, srcs []ids.NodeID) {
	t.Helper()
	affected := append([]ids.NodeID(nil), o.Affected(srcs)...)
	calls, gen := o.Calls().Value(), o.gen
	got := o.Singletons(affected, sc)
	charged, bfs := o.Calls().Value()-calls, uint64(o.gen-gen)

	if len(got) != len(affected) {
		t.Fatalf("%d values for %d affected nodes", len(got), len(affected))
	}
	ref := New(o.Graph(), nil)
	for i, v := range affected {
		if want := ref.Spread(v); got[i] != want {
			t.Fatalf("f({%d}) = %d, want %d (sources %v)", v, got[i], want, srcs)
		}
	}
	if charged != bfs {
		t.Fatalf("charged %d oracle calls for %d BFSes", charged, bfs)
	}
	if sccs := sccCount(ref, affected); charged > uint64(sccs) {
		t.Fatalf("charged %d oracle calls for %d affected SCCs", charged, sccs)
	}
}

// TestQuickSingletonsMatchSpread pins the SCC pass to one Spread per
// node on random graphs, reusing one oracle and one scratch as the graph
// grows between rounds, the way a Sieve does.
func TestQuickSingletonsMatchSpread(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := sccShapes(rng)
		o := New(g, &metrics.Counter{})
		sc := new(SingletonScratch)
		for round := 0; round < 4; round++ {
			n := g.NodeCap()
			srcs := make([]ids.NodeID, 1+rng.Intn(4))
			for i := range srcs {
				srcs[i] = ids.NodeID(rng.Intn(n))
			}
			checkSingletons(t, o, sc, srcs)
			for i := rng.Intn(6); i > 0; i-- {
				g.AddEdge(ids.NodeID(rng.Intn(n+3)), ids.NodeID(rng.Intn(n+3)))
			}
		}
	}
}

// TestSingletonsRuleCosts charges each rule on a graph where every rule
// fires: H = {0,1,2} is the hub (one fill); B = {3,4} and 5 derive from
// their one successor SCC, 10 and the chain 13→14→10 derive too, 6 leaves
// the affected set but reaches H (one gain BFS), and 11 leaves it without
// reaching H (one Spread). 9 and 12 reach no source, so they are not
// affected.
func TestSingletonsRuleCosts(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{
		0: {1}, 1: {2}, 2: {0},
		3: {4}, 4: {3, 0},
		5:  {3},
		6:  {0, 9},
		11: {10, 12},
		13: {14}, 14: {10},
	})
	o := New(g, nil)
	affected := o.Affected([]ids.NodeID{0, 10})
	got := o.Singletons(affected, new(SingletonScratch))
	ref := New(g, nil)
	for i, v := range affected {
		if want := ref.Spread(v); got[i] != want {
			t.Fatalf("f({%d}) = %d, want %d", v, got[i], want)
		}
	}
	if len(affected) != 11 {
		t.Fatalf("%d affected nodes, want 11", len(affected))
	}
	if c := o.Calls().Value(); c != 3 {
		t.Fatalf("charged %d oracle calls, want 3: hub fill, gain for 6, Spread for 11", c)
	}
}

// TestSingletonsGainStopsAtHub: node 3 reaches the hub {0,1,2} and also
// node 4, outside the affected set, so its spread takes a BFS. That BFS,
// the pass's last, must stop at R(H) instead of walking the hub again.
func TestSingletonsGainStopsAtHub(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{0: {1}, 1: {2}, 2: {0}, 3: {0, 4}})
	o := New(g, nil)
	affected := o.Affected([]ids.NodeID{0})
	got := o.Singletons(affected, new(SingletonScratch))
	for i, v := range affected {
		if want := map[ids.NodeID]int{0: 3, 1: 3, 2: 3, 3: 5}[v]; got[i] != want {
			t.Fatalf("f({%d}) = %d, want %d", v, got[i], want)
		}
	}
	if c := o.Calls().Value(); c != 2 {
		t.Fatalf("charged %d oracle calls, want 2: hub fill, gain for 3", c)
	}
	for v := ids.NodeID(0); v < 3; v++ {
		if o.visited[v] == o.gen {
			t.Fatalf("node 3's BFS walked hub node %d", v)
		}
	}
}

// TestSingletonsDeepChain runs the pass down a 200k-node chain: the walk
// is iterative, and every spread on a chain derives from its successor's,
// so only the sink's would need a BFS, and it needs none either.
func TestSingletonsDeepChain(t *testing.T) {
	const n = 200_000
	g := graph.NewADN()
	for v := ids.NodeID(0); v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	o := New(g, nil)
	affected := o.Affected([]ids.NodeID{n - 1})
	got := o.Singletons(affected, new(SingletonScratch))
	for i, v := range affected {
		if want := int(n - v); got[i] != want {
			t.Fatalf("f({%d}) = %d, want %d", v, got[i], want)
		}
	}
	if c := o.Calls().Value(); c != 0 {
		t.Fatalf("charged %d oracle calls on a chain, want 0", c)
	}
}

// TestSingletonsNeedsPredecessorClosedSet: a node set that misses an
// in-neighbor of one of its members is a caller bug, reported as a panic
// rather than as wrong spreads.
func TestSingletonsNeedsPredecessorClosedSet(t *testing.T) {
	g := buildADN(map[ids.NodeID][]ids.NodeID{0: {1}, 1: {2}})
	o := New(g, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a set missing node 0, an in-neighbor of 1")
		}
	}()
	o.Singletons([]ids.NodeID{1, 2}, new(SingletonScratch))
}

// FuzzSingletons runs the property check on fuzzed edge lists over 64
// nodes, with the new-edge sources taken from the input's tail.
func FuzzSingletons(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 5, 4}, []byte{4})
	f.Add([]byte{0, 1, 1, 0, 2, 3, 3, 2, 1, 2, 4, 0}, []byte{3, 0})
	f.Fuzz(func(t *testing.T, edges, srcs []byte) {
		g := graph.NewADN()
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(ids.NodeID(edges[i]%64), ids.NodeID(edges[i+1]%64))
		}
		var sources []ids.NodeID
		for _, s := range srcs {
			sources = append(sources, ids.NodeID(s%64))
		}
		checkSingletons(t, New(g, nil), new(SingletonScratch), sources)
	})
}
