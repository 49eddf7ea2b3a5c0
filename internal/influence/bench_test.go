package influence

import (
	"math/rand"
	"testing"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
)

// The oracle micro-benchmarks below pin the per-call cost of the two hot
// primitives every tracker is built on: MarginalGain (one f_t evaluation
// per sieve threshold test) and ReachSet.Clone (one per candidate per
// HISTAPPROX instance clone). They run on a fixed seeded random graph so
// numbers are comparable across commits (`go test -run '^$' -bench .
// ./internal/influence`).

// benchGraph builds a seeded Erdős–Rényi-style ADN with n nodes and m
// distinct directed edges.
func benchGraph(n, m int) *graph.ADN {
	rng := rand.New(rand.NewSource(42))
	g := graph.NewADN()
	for g.NumEdges() < m {
		u := ids.NodeID(rng.Intn(n))
		v := ids.NodeID(rng.Intn(n))
		g.AddEdge(u, v)
	}
	return g
}

// BenchmarkMarginalGain measures one δ_S(v) evaluation against a
// materialized R(S) covering roughly half the graph — the shape of the
// sieve's threshold test on a warm candidate.
func BenchmarkMarginalGain(b *testing.B) {
	const n, m = 20000, 60000
	g := benchGraph(n, m)
	o := New(g, nil)

	// Materialize R(S) from a handful of seeds, then collect probe nodes
	// outside it so every MarginalGain call walks a real frontier.
	rs := NewReachSet()
	o.FillReachSet(rs, 0, 1, 2, 3, 4)
	rng := rand.New(rand.NewSource(7))
	var probes []ids.NodeID
	for len(probes) < 256 {
		v := ids.NodeID(rng.Intn(n))
		if !rs.Contains(v) {
			probes = append(probes, v)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.MarginalGain(rs, probes[i%len(probes)], false)
	}
}

// BenchmarkReachSetClone measures deep-copying one candidate reach set of
// ~n/2 members — done once per candidate per instance clone in HISTAPPROX.
func BenchmarkReachSetClone(b *testing.B) {
	const n, m = 20000, 60000
	g := benchGraph(n, m)
	o := New(g, nil)
	rs := NewReachSet()
	o.FillReachSet(rs, 0, 1, 2, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rs.Clone()
		if c.Len() != rs.Len() {
			b.Fatal("clone length mismatch")
		}
	}
}

// BenchmarkReachSetContains measures the membership probe on the expand
// path (one per visited edge of every BFS).
func BenchmarkReachSetContains(b *testing.B) {
	const n, m = 20000, 60000
	g := benchGraph(n, m)
	o := New(g, nil)
	rs := NewReachSet()
	o.FillReachSet(rs, 0, 1, 2, 3, 4)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if rs.Contains(ids.NodeID(i % n)) {
			hits++
		}
	}
	_ = hits
}

// BenchmarkOracleUpdate measures the incremental R(S) refresh after a
// small batch of new edges (Sieve.Feed does one per candidate per batch).
func BenchmarkOracleUpdate(b *testing.B) {
	const n, m = 20000, 60000
	g := benchGraph(n, m)
	o := New(g, nil)
	rs := NewReachSet()
	o.FillReachSet(rs, 0, 1, 2, 3, 4)
	// Edges whose sources sit outside R(S): Update scans but does not grow,
	// which is the common steady-state case.
	rng := rand.New(rand.NewSource(11))
	var batch []Endpoints
	for len(batch) < 32 {
		u := ids.NodeID(rng.Intn(n))
		v := ids.NodeID(rng.Intn(n))
		if !rs.Contains(u) {
			batch = append(batch, Endpoints{Src: u, Dst: v})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Update(rs, batch)
	}
}

// BenchmarkAffected measures the reverse multi-source BFS (graph
// bookkeeping done once per fed batch).
func BenchmarkAffected(b *testing.B) {
	const n, m = 20000, 60000
	g := benchGraph(n, m)
	o := New(g, nil)
	srcs := []ids.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Affected(srcs)
	}
}

// BenchmarkSingletons measures the SCC pass that yields f({v}) for every
// node Affected returns (done once per fed batch, after Affected).
func BenchmarkSingletons(b *testing.B) {
	const n, m = 20000, 60000
	g := benchGraph(n, m)
	o := New(g, nil)
	affected := o.Affected([]ids.NodeID{0, 1, 2, 3, 4, 5, 6, 7})
	sc := new(SingletonScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Singletons(affected, sc)
	}
}
