package core

import (
	"tdnstream/internal/ids"
	"tdnstream/internal/influence"
)

// SeedContribution attributes a share of the solution's influence spread
// to one seed: Gain is the marginal spread the seed adds on top of the
// seeds listed before it (insertion order of the winning candidate), so
// the Gains sum to the solution value. Exclusive is the seed's spread on
// its own — the gap between Exclusive and Gain measures how much the
// seed's audience overlaps the rest of the set.
type SeedContribution struct {
	Seed      ids.NodeID
	Gain      int
	Exclusive int
}

// Explain decomposes the instance's current best solution into per-seed
// contributions. It costs up to 2k oracle calls (one marginal and one
// singleton evaluation per seed).
func (s *Sieve) Explain() []SeedContribution {
	best := s.best()
	if best == nil || len(best.members) == 0 {
		return nil
	}
	out := make([]SeedContribution, 0, len(best.members))
	rs := influence.NewReachSet()
	for _, seed := range best.members { // insertion order
		gain := s.oracle.MarginalGain(rs, seed, true)
		out = append(out, SeedContribution{
			Seed:      seed,
			Gain:      gain,
			Exclusive: s.oracle.Spread(seed),
		})
	}
	return out
}

// Explain decomposes the current solution of the head instance (see
// Sieve.Explain). Nil before the first batch.
func (h *HistApprox) Explain() []SeedContribution {
	if len(h.xs) == 0 {
		return nil
	}
	return h.insts[h.xs[0]].Explain()
}

// Explain decomposes the head instance's current solution (see
// Sieve.Explain). Nil before warm-up.
func (b *BasicReduction) Explain() []SeedContribution {
	head, ok := b.insts[b.t+1]
	if !ok {
		return nil
	}
	return head.Explain()
}

// Explain decomposes the current solution (see Sieve.Explain).
func (s *SieveADN) Explain() []SeedContribution {
	return s.sieve.Explain()
}
