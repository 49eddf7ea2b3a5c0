package core

import (
	"tdnstream/internal/influence"
	"tdnstream/internal/metrics"
	"tdnstream/internal/stream"
)

// SieveADN is the Tracker for addition-only dynamic interaction networks
// (paper §III-A): one Sieve instance over the whole stream. Edge lifetimes
// are ignored — every edge lives forever (paper Example 3).
type SieveADN struct {
	sieve *Sieve
	t     int64
	begun bool
}

// NewSieveADN returns a SIEVEADN tracker with budget k and granularity
// eps, counting oracle calls into calls (may be nil).
func NewSieveADN(k int, eps float64, calls *metrics.Counter) *SieveADN {
	if calls == nil {
		calls = &metrics.Counter{}
	}
	return &SieveADN{sieve: NewSieve(k, eps, calls)}
}

// Step implements Tracker.
func (s *SieveADN) Step(t int64, edges []stream.Edge) error {
	if err := checkStep(s.t, t, !s.begun); err != nil {
		return err
	}
	s.begun = true
	s.t = t
	s.sieve.Feed(endpointsOf(edges))
	return nil
}

// Solution implements Tracker.
func (s *SieveADN) Solution() Solution { return s.sieve.Solution() }

// Calls implements Tracker.
func (s *SieveADN) Calls() *metrics.Counter { return s.sieve.oracle.Calls() }

// Name implements Tracker.
func (s *SieveADN) Name() string { return "SieveADN" }

// Sieve exposes the underlying instance (used by tests).
func (s *SieveADN) Sieve() *Sieve { return s.sieve }

// Now returns the time of the most recent step (0 before any data). A
// restored tracker resumes from here: the next step must use a later time.
func (s *SieveADN) Now() int64 { return s.t }

// LiveGraph exposes the current live graph — the instance's
// addition-only graph (every edge lives forever in the ADN model) — for
// external oracle evaluations (the shard merge layer).
func (s *SieveADN) LiveGraph() influence.Graph { return s.sieve.Graph() }
