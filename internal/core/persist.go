package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
)

// Checkpoint / restore support.
//
// A long-running tracking service needs to survive restarts without
// replaying the whole interaction history. Each tracker can write a
// compact snapshot of its state (gob-encoded) and be reconstructed from
// it; the restored tracker makes bit-for-bit the same decisions on the
// remaining stream as the original would have.
//
// A sieve instance's reach sets are not serialized: they are derivable —
// R(S) is recomputed from the restored graph and members with one
// f_t evaluation per candidate, which is charged to the oracle counter
// like any other evaluation.

// SnapshotKind names a tracker's snapshot wire format and returns its
// writer ("" and nil for trackers without snapshot support). It is the
// single registry behind every kind-tagged envelope — the root facade's
// SaveTracker and the shard engine's per-partition envelopes both
// dispatch through it, so a new snapshot-capable tracker is added here
// once.
func SnapshotKind(tr Tracker) (kind string, write func(io.Writer) error) {
	switch t := tr.(type) {
	case *SieveADN:
		return "sieveadn", t.WriteSnapshot
	case *BasicReduction:
		return "basicreduction", t.WriteSnapshot
	case *HistApprox:
		return "histapprox", t.WriteSnapshot
	default:
		return "", nil
	}
}

// ReadSnapshot is SnapshotKind's inverse: reconstruct a tracker from a
// kind-tagged snapshot payload. calls may be nil.
func ReadSnapshot(kind string, r io.Reader, calls *metrics.Counter) (Tracker, error) {
	switch kind {
	case "sieveadn":
		return ReadSieveADNSnapshot(r, calls)
	case "basicreduction":
		return ReadBasicReductionSnapshot(r, calls)
	case "histapprox":
		return ReadHistApproxSnapshot(r, calls)
	default:
		return nil, fmt.Errorf("core: unknown snapshot kind %q", kind)
	}
}

// sieveSnap is the wire form of one Sieve.
type sieveSnap struct {
	K            int
	Eps          float64
	Delta        int
	Pairs        []uint64 // distinct directed pairs (EdgeKey packed)
	Interactions int
	Cands        []candSnap
}

// candSnap is the wire form of one threshold candidate.
type candSnap struct {
	Exp     int
	Members []ids.NodeID
}

func (s *Sieve) snapshot() sieveSnap {
	snap := sieveSnap{
		K:            s.k,
		Eps:          s.eps,
		Delta:        s.delta,
		Interactions: s.g.NumInteractions(),
	}
	s.g.Pairs(func(u, v ids.NodeID) {
		snap.Pairs = append(snap.Pairs, ids.EdgeKey(u, v))
	})
	for _, c := range s.cands {
		snap.Cands = append(snap.Cands, candSnap{Exp: c.exp, Members: append([]ids.NodeID(nil), c.members...)})
	}
	return snap
}

// restoreSieve rebuilds an instance from its wire form, recomputing each
// non-empty candidate's reach set on the restored graph (one oracle call
// each).
func restoreSieve(snap sieveSnap, calls *metrics.Counter) (*Sieve, error) {
	if snap.K < 1 || snap.Eps <= 0 || snap.Eps >= 1 {
		return nil, fmt.Errorf("core: corrupt sieve snapshot (k=%d eps=%g)", snap.K, snap.Eps)
	}
	s := NewSieve(snap.K, snap.Eps, calls)
	for _, key := range snap.Pairs {
		u, v := ids.SplitEdgeKey(key)
		s.g.AddEdge(u, v)
	}
	s.g.RestoreInteractions(snap.Interactions)
	s.delta = snap.Delta
	for _, cs := range snap.Cands {
		c := s.newCand(cs.Exp)
		c.members = append([]ids.NodeID(nil), cs.Members...)
		for _, m := range cs.Members {
			c.inSet[m] = struct{}{}
		}
		if len(c.members) > 0 {
			s.oracle.FillReachSet(c.reach, c.members...)
		}
		s.cands[cs.Exp] = c
		s.candsDirty = true
	}
	return s, nil
}

// histSnap is the wire form of a HistApprox tracker.
type histSnap struct {
	K          int
	Eps        float64
	L          int
	T          int64
	Begun      bool
	RefineHead bool
	Deadlines  []int64
	Instances  []sieveSnap
	Store      []stream.Edge // live edges with original T and lifetime
}

// WriteSnapshot serializes the tracker state (gob).
func (h *HistApprox) WriteSnapshot(w io.Writer) error {
	snap := histSnap{
		K: h.k, Eps: h.eps, L: h.L, T: h.t, Begun: h.begun, RefineHead: h.RefineHead,
	}
	for _, d := range h.xs {
		snap.Deadlines = append(snap.Deadlines, d)
		snap.Instances = append(snap.Instances, h.insts[d].snapshot())
	}
	if h.store != nil {
		h.store.ForEachLiveEdge(func(e stream.Edge) { snap.Store = append(snap.Store, e) })
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode HistApprox snapshot: %w", err)
	}
	return nil
}

// ReadHistApproxSnapshot reconstructs a HistApprox tracker from a
// snapshot written by WriteSnapshot. calls may be nil.
func ReadHistApproxSnapshot(r io.Reader, calls *metrics.Counter) (*HistApprox, error) {
	var snap histSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode HistApprox snapshot: %w", err)
	}
	if len(snap.Deadlines) != len(snap.Instances) {
		return nil, fmt.Errorf("core: corrupt snapshot: %d deadlines, %d instances",
			len(snap.Deadlines), len(snap.Instances))
	}
	h := NewHistApprox(snap.K, snap.Eps, snap.L, calls)
	h.t = snap.T
	h.begun = snap.Begun
	h.RefineHead = snap.RefineHead
	if snap.Begun {
		h.store = graph.NewTDN(snap.T)
		for _, e := range snap.Store {
			if err := h.store.Restore(e); err != nil {
				return nil, err
			}
		}
	}
	for i, d := range snap.Deadlines {
		if d <= snap.T {
			return nil, fmt.Errorf("core: corrupt snapshot: dead instance deadline %d at t=%d", d, snap.T)
		}
		inst, err := restoreSieve(snap.Instances[i], h.calls)
		if err != nil {
			return nil, err
		}
		inst.scc = h.scc
		h.insts[d] = inst
		h.xs = append(h.xs, d)
	}
	return h, nil
}

// basicSnap is the wire form of a BasicReduction tracker.
type basicSnap struct {
	K         int
	Eps       float64
	L         int
	T         int64
	Begun     bool
	Deadlines []int64
	Instances []sieveSnap
}

// WriteSnapshot serializes the tracker state (gob).
func (b *BasicReduction) WriteSnapshot(w io.Writer) error {
	snap := basicSnap{K: b.k, Eps: b.eps, L: b.L, T: b.t, Begun: b.begun}
	for d, inst := range b.insts {
		snap.Deadlines = append(snap.Deadlines, d)
		snap.Instances = append(snap.Instances, inst.snapshot())
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode BasicReduction snapshot: %w", err)
	}
	return nil
}

// ReadBasicReductionSnapshot reconstructs a BasicReduction tracker.
func ReadBasicReductionSnapshot(r io.Reader, calls *metrics.Counter) (*BasicReduction, error) {
	var snap basicSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode BasicReduction snapshot: %w", err)
	}
	if len(snap.Deadlines) != len(snap.Instances) {
		return nil, fmt.Errorf("core: corrupt snapshot: %d deadlines, %d instances",
			len(snap.Deadlines), len(snap.Instances))
	}
	b := NewBasicReduction(snap.K, snap.Eps, snap.L, calls)
	b.t = snap.T
	b.begun = snap.Begun
	for i, d := range snap.Deadlines {
		inst, err := restoreSieve(snap.Instances[i], b.calls)
		if err != nil {
			return nil, err
		}
		inst.scc = b.scc
		b.insts[d] = inst
	}
	return b, nil
}

// adnSnap is the wire form of a SieveADN tracker.
type adnSnap struct {
	T     int64
	Begun bool
	Inst  sieveSnap
}

// WriteSnapshot serializes the tracker state (gob).
func (s *SieveADN) WriteSnapshot(w io.Writer) error {
	snap := adnSnap{T: s.t, Begun: s.begun, Inst: s.sieve.snapshot()}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode SieveADN snapshot: %w", err)
	}
	return nil
}

// ReadSieveADNSnapshot reconstructs a SieveADN tracker.
func ReadSieveADNSnapshot(r io.Reader, calls *metrics.Counter) (*SieveADN, error) {
	var snap adnSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode SieveADN snapshot: %w", err)
	}
	if calls == nil {
		calls = &metrics.Counter{}
	}
	inst, err := restoreSieve(snap.Inst, calls)
	if err != nil {
		return nil, err
	}
	return &SieveADN{sieve: inst, t: snap.T, begun: snap.Begun}, nil
}
