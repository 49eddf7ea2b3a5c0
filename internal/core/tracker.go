// Package core implements the paper's three streaming algorithms:
//
//   - SieveADN (Alg. 1): a threshold sieve that tracks influential nodes
//     over addition-only dynamic interaction networks with a (1/2 − ε)
//     approximation guarantee (Theorem 2).
//   - BasicReduction (Alg. 2): runs L staggered SieveADN instances so the
//     guarantee carries over to general time-decaying networks
//     (Theorem 4), at L× the cost (Theorem 5).
//   - HistApprox (Alg. 3): keeps only a smooth histogram of instances,
//     killing ε-redundant ones, for a (1/3 − ε) guarantee (Theorem 7) at
//     a fraction of the cost (Theorem 8). The optional head refinement
//     (Remark after Theorem 8) restores (1/2 − ε).
//
// All three implement Tracker and share the oracle-call accounting of
// package influence.
package core

import (
	"fmt"
	"sort"

	"tdnstream/internal/ids"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
)

// Solution is a tracker's answer at some time step: at most k seed nodes
// and their influence spread f_t(S).
type Solution struct {
	Seeds []ids.NodeID
	Value int
}

// Tracker is the common interface of the streaming algorithms (and of the
// baseline wrappers in internal/baselines): consume the per-step edge
// batch, answer with the current influential-node set on demand.
type Tracker interface {
	// Step processes the batch of edges arriving at time t. Time must be
	// strictly increasing across calls; steps may be skipped when the
	// stream is silent.
	Step(t int64, edges []stream.Edge) error
	// Solution returns the influential nodes for the most recent step.
	Solution() Solution
	// Calls exposes the oracle-call counter (the paper's cost metric).
	Calls() *metrics.Counter
	// Name identifies the algorithm in experiment output.
	Name() string
}

// checkStep validates the monotone-time contract shared by the trackers.
func checkStep(prev, t int64, first bool) error {
	if !first && t <= prev {
		return fmt.Errorf("core: time must be strictly increasing (got %d after %d)", t, prev)
	}
	return nil
}

// endpointsOf strips a batch to bare directed pairs for instance feeding,
// dropping self-loops (disallowed by the TDN model).
func endpointsOf(edges []stream.Edge) []Pair {
	return appendEndpoints(make([]Pair, 0, len(edges)), edges)
}

// appendEndpoints is endpointsOf appending to dst.
func appendEndpoints(dst []Pair, edges []stream.Edge) []Pair {
	for _, e := range edges {
		if e.Src != e.Dst {
			dst = append(dst, Pair{e.Src, e.Dst})
		}
	}
	return dst
}

// Pair is a bare directed endpoint pair — the edge shape Sieve.Feed
// consumes (lifetimes are handled by the trackers, not the sieve).
type Pair struct {
	Src, Dst ids.NodeID
}

// sortedSeeds returns a sorted copy, making solutions deterministic for
// tests and logs regardless of map iteration order upstream.
func sortedSeeds(s []ids.NodeID) []ids.NodeID {
	out := append([]ids.NodeID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
