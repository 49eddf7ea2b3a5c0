package core

import (
	"runtime"
	"testing"

	"tdnstream/internal/datasets"
	"tdnstream/internal/lifetime"
	"tdnstream/internal/stream"
)

// TestHistApproxStepAllocations runs HistApprox on the paper's setting —
// twitter-higgs, one interaction per step, Geo(0.001) lifetimes capped at
// L=10K, k=10, ε=0.2 — and bounds the bytes a steady-state step
// allocates. Instances the reduce kills, expired ones and their graph
// pages are recycled into the next clones, so a step should allocate
// little beyond the neighbor lists its edges grow.
func TestHistApproxStepAllocations(t *testing.T) {
	const (
		warm    = 3000
		measure = 1000
		limit   = 16 << 10
	)
	cfg := datasets.TwitterHiggs(warm + measure)
	cfg.Seed = 1
	in := datasets.Retweet(cfg)
	life := lifetime.NewGeometric(0.001, 10_000, 1)
	h := NewHistApprox(10, 0.2, 10_000, nil)
	batch := make([]stream.Edge, 1)
	step := func(i int) {
		x := in[i]
		batch[0] = stream.Edge{Src: x.Src, Dst: x.Dst, T: x.T, Lifetime: life.Assign(x)}
		if err := h.Step(x.T, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		step(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+measure; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / measure
	objects := (after.Mallocs - before.Mallocs) / measure
	t.Logf("%d bytes in %d objects per step, %d instances, %d kills", perStep, objects, h.NumInstances(), h.kills)
	if perStep > limit {
		t.Errorf("a steady-state step allocates %d bytes, want at most %d", perStep, limit)
	}
}
