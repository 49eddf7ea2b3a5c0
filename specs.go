package tdnstream

import (
	"fmt"
	"io"
	"strings"

	"tdnstream/internal/baselines"
	"tdnstream/internal/core"
	"tdnstream/internal/metrics"
	"tdnstream/internal/ris"
	"tdnstream/internal/shard"
	"tdnstream/internal/stream"
)

// TrackerSpec selects and parameterizes a tracker algorithm by name. It is
// the shared construction path of cmd/influtrack, cmd/influtrackd and the
// serving layer, so every front end accepts the same algorithm vocabulary.
type TrackerSpec struct {
	// Algo is one of: sieveadn, basicreduction, histapprox,
	// histapprox-refined, greedy, random, dim, imm, timplus.
	Algo string
	// K is the seed budget (required, ≥ 1).
	K int
	// Eps is the approximation granularity ε for the sieve family (and the
	// RIS baselines' eps); 0 means the paper default 0.1 (0.3 for imm/timplus).
	Eps float64
	// L is the maximum lifetime for basicreduction/histapprox (required
	// there, ignored elsewhere).
	L int
	// Beta is the DIM sketch fanout; 0 means the paper default 32.
	Beta int
	// Seed feeds the randomized algorithms (random, dim, imm, timplus).
	Seed int64
	// Shards ≥ 2 partitions the stream by source-node hash across that
	// many independent tracker instances with a global greedy top-k merge
	// (internal/shard) — the scale-out mode for streams that saturate one
	// tracker. 0 or 1 runs a single tracker.
	Shards int
}

// TrackerAlgos lists the algorithm names TrackerSpec accepts.
func TrackerAlgos() []string {
	return []string{"sieveadn", "basicreduction", "histapprox", "histapprox-refined",
		"greedy", "random", "dim", "imm", "timplus"}
}

// New builds the tracker the spec describes. With Shards ≥ 2 the result
// is a shard.Engine: Shards independent copies of the described tracker
// behind a source-hash partitioner and a global top-k merge, all sharing
// one oracle-call counter. Randomized algorithms offset their seed by
// the shard index so partitions decorrelate deterministically.
func (s TrackerSpec) New() (Tracker, error) {
	if s.K < 1 {
		return nil, fmt.Errorf("tdnstream: tracker spec needs k ≥ 1 (got %d)", s.K)
	}
	if s.Shards >= 2 {
		calls := &metrics.Counter{}
		eng, err := shard.NewEngine(s.Shards, s.K, func(i int) (core.Tracker, error) {
			sub := s
			sub.Shards = 0
			sub.Seed = s.Seed + int64(i)
			return sub.build(calls)
		}, calls)
		if err != nil {
			return nil, fmt.Errorf("tdnstream: %w", err)
		}
		return eng, nil
	}
	return s.build(nil)
}

// build constructs the single-tracker form of the spec, counting oracle
// calls into calls (nil for a private counter). The sharding wrapper is
// applied by New.
func (s TrackerSpec) build(calls *metrics.Counter) (Tracker, error) {
	eps := s.Eps
	if eps == 0 {
		eps = 0.1
	}
	risEps := s.Eps
	if risEps == 0 {
		risEps = 0.3
	}
	beta := s.Beta
	if beta == 0 {
		beta = 32
	}
	needL := func() error {
		if s.L < 1 {
			return fmt.Errorf("tdnstream: algorithm %q needs a maximum lifetime L ≥ 1 (got %d)", s.Algo, s.L)
		}
		return nil
	}
	switch strings.ToLower(s.Algo) {
	case "sieveadn":
		return core.NewSieveADN(s.K, eps, calls), nil
	case "basicreduction":
		if err := needL(); err != nil {
			return nil, err
		}
		return core.NewBasicReduction(s.K, eps, s.L, calls), nil
	case "histapprox":
		if err := needL(); err != nil {
			return nil, err
		}
		return core.NewHistApprox(s.K, eps, s.L, calls), nil
	case "histapprox-refined":
		if err := needL(); err != nil {
			return nil, err
		}
		h := core.NewHistApprox(s.K, eps, s.L, calls)
		h.RefineHead = true
		return h, nil
	case "greedy":
		return baselines.NewGreedy(s.K, calls), nil
	case "random":
		return baselines.NewRandom(s.K, s.Seed, calls), nil
	case "dim":
		return ris.NewDIM(s.K, beta, s.Seed, calls), nil
	case "imm":
		return ris.NewIMM(s.K, ris.IMMOptions{Eps: risEps}, s.Seed, calls), nil
	case "timplus":
		return ris.NewTIMPlus(s.K, ris.TIMOptions{Eps: risEps}, s.Seed, calls), nil
	default:
		return nil, fmt.Errorf("tdnstream: unknown algorithm %q (want one of %s)",
			s.Algo, strings.Join(TrackerAlgos(), ", "))
	}
}

// LifetimeSpec selects and parameterizes a lifetime assigner (the TDN
// decay policy) by name, mirroring TrackerSpec.
type LifetimeSpec struct {
	// Policy is one of: constant, geometric, uniform, zipf.
	Policy string
	// Window is the constant policy's lifetime (sliding window width).
	Window int
	// P is the geometric policy's per-step forgetting probability.
	P float64
	// L is the maximum lifetime (geometric truncation / zipf support).
	L int
	// Lo and Hi bound the uniform policy.
	Lo, Hi int
	// S is the zipf exponent.
	S float64
	// Seed feeds the randomized policies.
	Seed int64
}

// LifetimePolicies lists the policy names LifetimeSpec accepts.
func LifetimePolicies() []string {
	return []string{"constant", "geometric", "uniform", "zipf"}
}

// New builds the assigner the spec describes.
func (s LifetimeSpec) New() (Assigner, error) {
	switch strings.ToLower(s.Policy) {
	case "constant", "window":
		if s.Window < 1 {
			return nil, fmt.Errorf("tdnstream: constant lifetime needs window ≥ 1 (got %d)", s.Window)
		}
		return ConstantLifetime(s.Window), nil
	case "geometric":
		if s.P <= 0 || s.P >= 1 {
			return nil, fmt.Errorf("tdnstream: geometric lifetime needs p ∈ (0,1) (got %g)", s.P)
		}
		if s.L < 1 {
			return nil, fmt.Errorf("tdnstream: geometric lifetime needs L ≥ 1 (got %d)", s.L)
		}
		return GeometricLifetime(s.P, s.L, s.Seed), nil
	case "uniform":
		if s.Lo < 1 || s.Hi < s.Lo {
			return nil, fmt.Errorf("tdnstream: uniform lifetime needs 1 ≤ lo ≤ hi (got [%d,%d])", s.Lo, s.Hi)
		}
		return UniformLifetime(s.Lo, s.Hi, s.Seed), nil
	case "zipf":
		if s.L < 1 {
			return nil, fmt.Errorf("tdnstream: zipf lifetime needs L ≥ 1 (got %d)", s.L)
		}
		return ZipfLifetime(s.S, s.L, s.Seed), nil
	default:
		return nil, fmt.Errorf("tdnstream: unknown lifetime policy %q (want one of %s)",
			s.Policy, strings.Join(LifetimePolicies(), ", "))
	}
}

// ReadNDJSON parses NDJSON interaction records ({"src":"a","dst":"b","t":1}),
// interning labels in dict. "t" may be omitted by producers feeding an
// arrival-clocked consumer; it defaults to 0.
func ReadNDJSON(r io.Reader, dict *Dict) ([]Interaction, error) { return stream.ReadNDJSON(r, dict) }

// WriteNDJSON encodes interactions as NDJSON records; pass a nil dict to
// write numeric ids.
func WriteNDJSON(w io.Writer, in []Interaction, dict *Dict) error {
	return stream.WriteNDJSON(w, in, dict)
}

// TrackerNow reports the tracker's current time step, for trackers that
// expose it (the streaming sieve family). A service restoring a checkpoint
// uses it to resume the stream clock without replaying history.
func TrackerNow(tr Tracker) (int64, bool) {
	if n, ok := tr.(interface{ Now() int64 }); ok {
		return n.Now(), true
	}
	return 0, false
}
