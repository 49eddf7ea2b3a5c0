package core

import (
	"sort"

	"tdnstream/internal/graph"
)

// Engine introspection: every tracker in the module can report its
// algorithm internals — instance counts, threshold windows, graph sizes —
// together with a walk-the-structures memory account. SizeBytes-style
// sums are built bottom-up from the actual backing arrays (bitset words,
// adjacency pages, scratch slices) so they track runtime.MemStats growth;
// Go map footprints are estimated from entry counts.

const (
	statNodeIDBytes = 4  // ids.NodeID is uint32
	statEdgeBytes   = 24 // stream.Edge, aligned
	statCandBytes   = 88 // sieveCand struct + ReachSet header
)

// statMapBytes estimates a Go map with n entries of kv key+value bytes
// (same model as the graph package's accountant).
func statMapBytes(n, kv int) int64 {
	if n == 0 {
		return 48
	}
	buckets := int64(n)*2/13 + 1
	return 48 + buckets*(16+8*int64(kv))
}

// Stats is a tracker's introspection report, JSON-shaped for the server's
// GET /v1/streams/{name}/stats endpoint. Zero-valued fields that do not
// apply to a given algorithm are omitted from the encoding where that is
// unambiguous; ThresholdExpLo/Hi are only meaningful when Thresholds > 0.
type Stats struct {
	Tracker string `json:"tracker"`
	// Bytes is the walked heap footprint of everything the tracker owns.
	Bytes int64 `json:"bytes"`

	// Instances is the number of live sieve instances (1 for a plain
	// SieveADN, the histogram size for HistApprox/BasicReduction, the
	// summed count for a sharded engine).
	Instances int `json:"instances,omitempty"`
	// ReductionKills counts instances removed by HISTAPPROX's
	// ε-redundancy reduction over the tracker's lifetime.
	ReductionKills uint64 `json:"reduction_kills,omitempty"`

	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// ExpirySlots is the number of distinct expiry times holding live
	// edges in the TDN store (trackers with time-decaying state only).
	ExpirySlots int `json:"expiry_slots,omitempty"`

	// Thresholds is |Θ| summed over instances; MaxCandidate the largest
	// candidate set |S_θ| (≤ k); the exponent window covers
	// (1+ε)^i ∈ [Δ, 2kΔ] for the head instance.
	Thresholds     int `json:"thresholds,omitempty"`
	MaxCandidate   int `json:"max_candidate,omitempty"`
	ThresholdExpLo int `json:"threshold_exp_lo"`
	ThresholdExpHi int `json:"threshold_exp_hi"`

	// ReachBytes is the slice of Bytes held by candidate reach-set
	// bitsets; ScratchBytes the oracle BFS and singleton-pass scratch.
	ReachBytes   int64 `json:"reach_bytes,omitempty"`
	ScratchBytes int64 `json:"scratch_bytes,omitempty"`

	// Sketches is the live RR-sketch count (RIS family only).
	Sketches int `json:"sketches,omitempty"`

	// InstanceStats breaks the histogram down per instance. Bytes there
	// are incremental: copy-on-write adjacency pages shared inside a clone
	// family are charged to the first instance that reports them.
	InstanceStats []InstanceStat `json:"instance_stats,omitempty"`

	// ShardRecords counts records routed to each shard since boot and
	// ShardSkew is max/mean of those counts (1.0 = perfectly balanced).
	// Shards nests each shard tracker's own report.
	ShardRecords []uint64 `json:"shard_records,omitempty"`
	ShardSkew    float64  `json:"shard_skew,omitempty"`
	Shards       []Stats  `json:"shards,omitempty"`
}

// InstanceStat is one histogram instance's share of a Stats report.
type InstanceStat struct {
	Index      int   `json:"index"` // lifetime index d − t
	Candidates int   `json:"candidates"`
	Nodes      int   `json:"nodes"`
	Edges      int   `json:"edges"`
	Bytes      int64 `json:"bytes"`
	Value      int   `json:"value"`
}

// Sizer is the optional introspection hook: trackers that can account
// their internals implement it, and callers discover it by type
// assertion — same pattern as the Now()/LiveGraph() hooks.
type Sizer interface {
	EngineStats() Stats
}

// StatsFor returns tr's introspection report when it implements Sizer.
func StatsFor(tr Tracker) (Stats, bool) {
	if s, ok := tr.(Sizer); ok {
		return s.EngineStats(), true
	}
	return Stats{}, false
}

// footprint walks one sieve instance's own structures: its graph (pages
// another graph of walk w already counted are skipped), and its
// candidates, spare ones included, with their reach bitsets; reach is
// also folded into total. Feed's scratch is the tracker's and is counted
// once by the caller.
func (s *Sieve) footprint(w graph.Walk) (total, reach int64) {
	total = s.g.SizeBytes(w)
	total += int64(cap(s.cands)+cap(s.next)+cap(s.spare)) * 8
	for _, cs := range [2][]*sieveCand{s.cands, s.spare} {
		for _, c := range cs {
			total += statCandBytes
			total += int64(cap(c.members)) * statNodeIDBytes
			total += statMapBytes(len(c.inSet), statNodeIDBytes)
			reach += c.reach.SizeBytes()
		}
	}
	return total + reach, reach
}

// sizeBytes returns the heap bytes Feed's scratch holds.
func (sc *feedScratch) sizeBytes() int64 {
	return sc.bfs.SizeBytes() + sc.scc.SizeBytes() +
		int64(cap(sc.newPairs))*8 +
		statMapBytes(len(sc.srcSet), statNodeIDBytes) +
		int64(cap(sc.srcs))*statNodeIDBytes
}

// EngineStats implements Sizer.
func (s *SieveADN) EngineStats() Stats {
	sv := s.sieve
	total, reach := sv.footprint(graph.NewWalk())
	scratch := sv.sc.sizeBytes()
	st := Stats{
		Tracker:      s.Name(),
		Instances:    1,
		Nodes:        sv.g.NumNodes(),
		Edges:        sv.g.NumEdges(),
		Thresholds:   len(sv.cands),
		ReachBytes:   reach,
		ScratchBytes: scratch,
		Bytes:        total + scratch,
	}
	for _, c := range sv.cands {
		st.MaxCandidate = max(st.MaxCandidate, len(c.members))
	}
	if sv.delta >= 1 {
		st.ThresholdExpLo, st.ThresholdExpHi = sv.expRange()
	}
	return st
}

// histogramStats folds a deadline-keyed instance map into one report. One
// walk spans every instance, so copy-on-write pages common to the clone
// family are counted once, and the Feed scratch sc that every instance
// shares is counted once. Used by HistApprox and BasicReduction.
func histogramStats(insts map[int64]*Sieve, t int64, sc *feedScratch) Stats {
	deadlines := make([]int64, 0, len(insts))
	for d := range insts {
		deadlines = append(deadlines, d)
	}
	sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })

	var st Stats
	st.Instances = len(insts)
	w := graph.NewWalk()
	for i, d := range deadlines {
		inst := insts[d]
		total, reach := inst.footprint(w)
		st.Bytes += total
		st.ReachBytes += reach
		st.Thresholds += len(inst.cands)
		for _, c := range inst.cands {
			if len(c.members) > st.MaxCandidate {
				st.MaxCandidate = len(c.members)
			}
		}
		if i == 0 && inst.delta >= 1 {
			st.ThresholdExpLo, st.ThresholdExpHi = inst.expRange()
		}
		st.InstanceStats = append(st.InstanceStats, InstanceStat{
			Index:      int(d - t),
			Candidates: len(inst.cands),
			Nodes:      inst.g.NumNodes(),
			Edges:      inst.g.NumEdges(),
			Bytes:      total,
			Value:      inst.Value(),
		})
	}
	st.ScratchBytes = sc.sizeBytes()
	st.Bytes += st.ScratchBytes
	return st
}

// EngineStats implements Sizer. Nodes/Edges are the live graph's (the
// TDN store), not the per-instance addition-only views. Bytes also
// covers the spare instances and the pages pooled for reuse.
func (h *HistApprox) EngineStats() Stats {
	st := histogramStats(h.insts, h.t, h.sc)
	st.Tracker = h.Name()
	st.ReductionKills = h.kills
	if h.store != nil {
		st.Nodes = h.store.NumNodes()
		st.Edges = h.store.NumAliveEdges()
		st.ExpirySlots = h.store.NumExpirySlots()
		st.Bytes += h.store.SizeBytes()
	}
	w := graph.NewWalk()
	for _, inst := range h.spare {
		total, reach := inst.footprint(w)
		st.Bytes += total
		st.ReachBytes += reach
	}
	st.Bytes += h.pool.SizeBytes()
	st.Bytes += int64(cap(h.xs)+cap(h.spare)+cap(h.lifetimes)+cap(h.vals)+cap(h.sufMax)) * 8
	st.Bytes += int64(cap(h.pairs)+cap(h.backlog)) * 8
	for _, g := range h.groups {
		st.Bytes += int64(cap(g)) * statEdgeBytes
	}
	for _, g := range h.groupPool {
		st.Bytes += int64(cap(g)) * statEdgeBytes
	}
	return st
}

// EngineStats implements Sizer. Nodes/Edges come from the head instance,
// which has processed exactly the live edges.
func (b *BasicReduction) EngineStats() Stats {
	st := histogramStats(b.insts, b.t, b.sc)
	st.Tracker = b.Name()
	if head, ok := b.insts[b.t+1]; ok {
		st.Nodes = head.g.NumNodes()
		st.Edges = head.g.NumEdges()
	}
	st.Bytes += int64(cap(b.scratch)) * statEdgeBytes
	return st
}
