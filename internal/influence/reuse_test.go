package influence

import (
	"math/rand"
	"testing"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
)

// Reach sets recycled through CopyFrom and Reset must keep their contents
// exact and their word arrays sized by the largest id seen, however long
// they are copied back and forth: a reused array must neither leak stale
// bits nor grow from one copy to the next.
func TestReachSetReuseStaysExactAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.NewADN()
	o := New(g, nil)
	sets := []*ReachSet{NewReachSet(), NewReachSet(), NewReachSet()}
	ref := make([]map[ids.NodeID]bool, len(sets))
	for i := range ref {
		ref[i] = map[ids.NodeID]bool{}
	}
	// New ids keep arriving, as they do in a stream, so the sets keep
	// growing past the words they were copied with.
	for op := 0; op < 3000; op++ {
		nodes := 64 + op
		i, j := rng.Intn(len(sets)), rng.Intn(len(sets))
		switch r := rng.Intn(10); {
		case r == 0:
			sets[i].Reset()
			ref[i] = map[ids.NodeID]bool{}
		case r < 4 && i != j:
			sets[i].CopyFrom(sets[j])
			ref[i] = make(map[ids.NodeID]bool, len(ref[j]))
			for n := range ref[j] {
				ref[i][n] = true
			}
		default:
			// Isolated nodes: a gain merges exactly the node itself.
			v := ids.NodeID(rng.Intn(nodes))
			o.MarginalGain(sets[i], v, true)
			ref[i][v] = true
		}
		for k, rs := range sets {
			if rs.Len() != len(ref[k]) {
				t.Fatalf("op %d: set %d holds %d members, want %d", op, k, rs.Len(), len(ref[k]))
			}
			rs.ForEach(func(n ids.NodeID) {
				if !ref[k][n] {
					t.Fatalf("op %d: set %d holds stale member %d", op, k, n)
				}
			})
			if words := int(rs.SizeBytes() / 8); words > 2*(nodes/64+1) {
				t.Fatalf("op %d: set %d holds %d words for ids below %d", op, k, words, nodes)
			}
		}
	}
}

// Oracles sharing one Scratch over different graphs answer exactly as
// oracles with their own: the shared generation stamps never let one
// graph's marks pass for another's.
func TestSharedScratchMatchesPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	var shared, private []*Oracle
	var gs []*graph.ADN
	for i := 0; i < 3; i++ {
		g := graph.NewADN()
		gs = append(gs, g)
		shared = append(shared, NewShared(g, nil, &sc))
		private = append(private, New(g, nil))
	}
	for op := 0; op < 2000; op++ {
		i := rng.Intn(len(gs))
		n := 20 + 60*i // the graphs differ in size, so the stamps do too
		gs[i].AddEdge(ids.NodeID(rng.Intn(n)), ids.NodeID(rng.Intn(n)))
		v := ids.NodeID(rng.Intn(n))
		if a, b := shared[i].Spread(v), private[i].Spread(v); a != b {
			t.Fatalf("op %d: graph %d Spread(%d) shared %d, private %d", op, i, v, a, b)
		}
		a, b := shared[i].Affected([]ids.NodeID{v}), private[i].Affected([]ids.NodeID{v})
		if len(a) != len(b) {
			t.Fatalf("op %d: graph %d Affected(%d) shared %d nodes, private %d", op, i, v, len(a), len(b))
		}
	}
}
