package core

import (
	"math/rand"
	"testing"

	"tdnstream/internal/ids"
	"tdnstream/internal/stream"
)

// Micro-benchmarks for the two HISTAPPROX hot paths this package owns:
// instance cloning (Alg. 3 lines 9-16, one per histogram insertion) and
// the full per-batch Step. Seeded inputs keep numbers comparable across
// commits (`go test -run '^$' -bench . ./internal/core`).

// benchSieve returns a warm SIEVEADN instance fed m random pairs over n
// nodes, with live thresholds and non-empty candidate reach sets.
func benchSieve(n, m int) *Sieve {
	rng := rand.New(rand.NewSource(42))
	s := NewSieve(10, 0.2, nil)
	batch := make([]Pair, 0, 64)
	for fed := 0; fed < m; {
		batch = batch[:0]
		for j := 0; j < 64 && fed < m; j++ {
			batch = append(batch, Pair{
				Src: ids.NodeID(rng.Intn(n)),
				Dst: ids.NodeID(rng.Intn(n)),
			})
			fed++
		}
		s.Feed(batch)
	}
	return s
}

// BenchmarkSieveClone measures Sieve.Clone on a warm instance — the cost
// HISTAPPROX pays every time a new lifetime index enters the histogram
// with a successor present.
func BenchmarkSieveClone(b *testing.B) {
	s := benchSieve(4000, 12000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if c.Value() != s.Value() {
			b.Fatal("clone value mismatch")
		}
	}
}

// BenchmarkSieveCloneFeed measures clone followed by a small divergent
// feed — the actual createInstance shape (clone successor, feed backlog),
// which exercises the copy-on-write divergence cost too.
func BenchmarkSieveCloneFeed(b *testing.B) {
	const n = 1000
	s := benchSieve(n, 2000)
	rng := rand.New(rand.NewSource(3))
	backlog := make([]Pair, 8)
	for i := range backlog {
		backlog[i] = Pair{Src: ids.NodeID(rng.Intn(n)), Dst: ids.NodeID(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		c.Feed(backlog)
	}
}

// BenchmarkSieveFeed measures one steady-state batch through a warm
// instance (edge insert + candidate updates + affected sieve).
func BenchmarkSieveFeed(b *testing.B) {
	const n = 1000
	s := benchSieve(n, 2000)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	batch := make([]Pair, 4)
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = Pair{Src: ids.NodeID(rng.Intn(n)), Dst: ids.NodeID(rng.Intn(n))}
		}
		s.Feed(batch)
	}
}

// BenchmarkHistApproxStep measures one tracker step on a steady-state
// HISTAPPROX over a seeded stream with skewed lifetimes (the paper's
// update-cost unit, Theorem 8).
func BenchmarkHistApproxStep(b *testing.B) {
	const (
		n = 4000
		L = 16
	)
	rng := rand.New(rand.NewSource(9))
	h := NewHistApprox(10, 0.2, L, nil)
	step := func(t int64) {
		edges := make([]stream.Edge, 4)
		for j := range edges {
			edges[j] = stream.Edge{
				Src:      ids.NodeID(rng.Intn(n)),
				Dst:      ids.NodeID(rng.Intn(n)),
				T:        t,
				Lifetime: 1 + rng.Intn(L),
			}
		}
		if err := h.Step(t, edges); err != nil {
			b.Fatal(err)
		}
	}
	var t int64
	for t = 1; t <= 2*L; t++ { // warm up past the first L steps
		step(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(t)
		t++
	}
}
