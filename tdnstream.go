package tdnstream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"tdnstream/internal/baselines"
	"tdnstream/internal/core"
	"tdnstream/internal/datasets"
	"tdnstream/internal/ids"
	"tdnstream/internal/lifetime"
	"tdnstream/internal/metrics"
	"tdnstream/internal/ris"
	"tdnstream/internal/shard"
	"tdnstream/internal/stream"
)

// NodeID is a dense node identifier. Use a Dict to map external string
// labels to NodeIDs.
type NodeID = ids.NodeID

// Interaction is one observed influence event ⟨Src, Dst, T⟩: Src
// influenced Dst at discrete time T. Self-loops are invalid.
type Interaction = stream.Interaction

// Edge is an interaction admitted into a TDN with an assigned lifetime.
type Edge = stream.Edge

// Solution is a tracker's answer: at most k seeds and their influence
// spread f_t(S) (number of nodes reachable from the seeds).
type Solution = core.Solution

// Tracker is the common interface of all algorithms: feed per-step edge
// batches with Step, read the current influential nodes with Solution.
// Most callers should drive a Tracker through a Pipeline, which assigns
// lifetimes and batches raw interactions.
type Tracker = core.Tracker

// Assigner maps an arriving interaction to a lifetime (the TDN model's
// decay policy).
type Assigner = lifetime.Assigner

// Dict maps external string node labels to dense NodeIDs and back.
type Dict = ids.Dict

// NewDict returns an empty label dictionary.
func NewDict() *Dict { return ids.NewDict() }

// ConstantLifetime gives every interaction the same lifetime w — the
// sliding-window special case of the TDN model.
func ConstantLifetime(w int) Assigner { return lifetime.NewConstant(w) }

// GeometricLifetime samples lifetimes from Geo(p) truncated at L —
// equivalent to forgetting each live interaction with probability p per
// step; this is the decay the paper's evaluation uses throughout.
func GeometricLifetime(p float64, L int, seed int64) Assigner {
	return lifetime.NewGeometric(p, L, seed)
}

// UniformLifetime samples lifetimes uniformly from [lo, hi].
func UniformLifetime(lo, hi int, seed int64) Assigner { return lifetime.NewUniform(lo, hi, seed) }

// ZipfLifetime samples heavy-tailed lifetimes ∝ l^(-s), l ∈ [1, L].
func ZipfLifetime(s float64, L int, seed int64) Assigner { return lifetime.NewZipf(s, L, seed) }

// NewSieveADN returns the SIEVEADN tracker for addition-only networks:
// (1/2−ε)-approximate, lifetimes ignored.
func NewSieveADN(k int, eps float64) Tracker { return core.NewSieveADN(k, eps, nil) }

// NewBasicReduction returns the BASICREDUCTION tracker for general TDNs
// with maximum lifetime L: (1/2−ε)-approximate at O(L) sieve instances.
func NewBasicReduction(k int, eps float64, L int) Tracker {
	return core.NewBasicReduction(k, eps, L, nil)
}

// NewHistApprox returns the HISTAPPROX tracker for general TDNs:
// (1/3−ε)-approximate with O(ε⁻¹ log k) sieve instances — the paper's
// recommended algorithm.
func NewHistApprox(k int, eps float64, L int) Tracker {
	return core.NewHistApprox(k, eps, L, nil)
}

// NewHistApproxRefined is HISTAPPROX with the exact-head query refinement
// (paper's remark after Theorem 8), restoring the (1/2−ε) guarantee for a
// modest extra query cost.
func NewHistApproxRefined(k int, eps float64, L int) Tracker {
	h := core.NewHistApprox(k, eps, L, nil)
	h.RefineHead = true
	return h
}

// NewGreedy returns the lazy-greedy baseline (re-run per query,
// (1−1/e)-approximate, expensive).
func NewGreedy(k int) Tracker { return baselines.NewGreedy(k, nil) }

// NewRandom returns the random-selection baseline.
func NewRandom(k int, seed int64) Tracker { return baselines.NewRandom(k, seed, nil) }

// NewDIM returns the dynamically-updatable RR-sketch baseline (Ohsaka et
// al.); the paper uses beta=32.
func NewDIM(k, beta int, seed int64) Tracker { return ris.NewDIM(k, beta, seed, nil) }

// NewIMM returns the IMM baseline (Tang et al. KDD'15), re-run on the
// current snapshot per query; the paper uses eps=0.3.
func NewIMM(k int, eps float64, seed int64) Tracker {
	return ris.NewIMM(k, ris.IMMOptions{Eps: eps}, seed, nil)
}

// NewTIMPlus returns the TIM+ baseline (Tang et al. SIGMOD'14); the paper
// uses eps=0.3.
func NewTIMPlus(k int, eps float64, seed int64) Tracker {
	return ris.NewTIMPlus(k, ris.TIMOptions{Eps: eps}, seed, nil)
}

// Pipeline drives a Tracker over a raw interaction stream: it validates
// interactions, assigns lifetimes, groups arrivals into per-step batches
// and advances the tracker's clock.
type Pipeline struct {
	tracker Tracker
	assign  Assigner
	t       int64
	begun   bool
}

// NewPipeline couples a tracker with a lifetime assigner.
func NewPipeline(tr Tracker, assign Assigner) *Pipeline {
	if tr == nil || assign == nil {
		panic("tdnstream: NewPipeline needs a tracker and an assigner")
	}
	return &Pipeline{tracker: tr, assign: assign}
}

// ObserveBatch feeds the interactions arriving at time t (strictly
// increasing across calls).
func (p *Pipeline) ObserveBatch(t int64, batch []Interaction) error {
	if p.begun && t <= p.t {
		return fmt.Errorf("tdnstream: time must be strictly increasing (got %d after %d)", t, p.t)
	}
	edges := make([]Edge, 0, len(batch))
	for _, x := range batch {
		if err := x.Validate(); err != nil {
			return err
		}
		if x.T != t {
			return fmt.Errorf("tdnstream: interaction timestamped %d in batch for time %d", x.T, t)
		}
		edges = append(edges, Edge{Src: x.Src, Dst: x.Dst, T: t, Lifetime: p.assign.Assign(x)})
	}
	if err := p.tracker.Step(t, edges); err != nil {
		return err
	}
	p.begun = true
	p.t = t
	return nil
}

// Run replays a whole interaction stream (grouped by timestamp), calling
// each after every step. each may be nil; returning an error stops the
// run.
func (p *Pipeline) Run(in []Interaction, each func(t int64) error) error {
	for _, b := range stream.Batches(in) {
		if err := p.ObserveBatch(b.T, b.Interactions); err != nil {
			return err
		}
		if each != nil {
			if err := each(b.T); err != nil {
				return err
			}
		}
	}
	return nil
}

// Solution returns the tracker's current influential nodes.
func (p *Pipeline) Solution() Solution { return p.tracker.Solution() }

// OracleCalls reports the cumulative number of influence-function
// evaluations — the paper's hardware-independent cost metric.
func (p *Pipeline) OracleCalls() uint64 { return p.tracker.Calls().Value() }

// Tracker exposes the wrapped tracker.
func (p *Pipeline) Tracker() Tracker { return p.tracker }

// Now returns the pipeline's current time.
func (p *Pipeline) Now() int64 { return p.t }

// Dataset generates one of the six built-in synthetic interaction streams
// (see DatasetNames) with the given length: "brightkite", "gowalla",
// "twitter-higgs", "twitter-hk", "stackoverflow-c2q", "stackoverflow-c2a".
func Dataset(name string, steps int64) ([]Interaction, error) {
	return datasets.Generate(name, steps)
}

// DatasetNames lists the built-in synthetic datasets in the order of the
// paper's Table I.
func DatasetNames() []string { return append([]string(nil), datasets.Names...) }

// Rebatch compresses a one-interaction-per-step stream so that perStep
// consecutive interactions share each timestamp — the batched-arrival
// regime the TDN model also supports. Order is preserved; timestamps are
// renumbered 1,2,3,….
func Rebatch(in []Interaction, perStep int) []Interaction {
	return datasets.Rebatch(in, perStep)
}

// ReadCSV parses "src,dst,t" interaction rows, interning labels in dict.
func ReadCSV(r io.Reader, dict *Dict) ([]Interaction, error) { return stream.ReadCSV(r, dict) }

// WriteCSV encodes interactions as "src,dst,t" rows; pass a nil dict to
// write numeric ids.
func WriteCSV(w io.Writer, in []Interaction, dict *Dict) error { return stream.WriteCSV(w, in, dict) }

// OracleCallsOf returns the counter behind a tracker (handy when driving
// trackers directly rather than through a Pipeline).
func OracleCallsOf(tr Tracker) *metrics.Counter { return tr.Calls() }

// SeedContribution attributes a share of the solution's spread to one
// seed: Gain is the marginal spread on top of the seeds before it (Gains
// sum to the solution value); Exclusive is the seed's spread alone, so
// Exclusive−Gain measures audience overlap with the rest of the set.
type SeedContribution = core.SeedContribution

// Explain decomposes a tracker's current solution into per-seed
// contributions (up to 2k oracle calls). Returns nil for trackers that
// do not support it (the baselines) or before any data has arrived.
func Explain(tr Tracker) []SeedContribution {
	if e, ok := tr.(interface{ Explain() []SeedContribution }); ok {
		return e.Explain()
	}
	return nil
}

// EngineStats is a tracker's introspection report: algorithm internals
// (instance counts, threshold windows, shard balance) plus a
// walk-the-structures memory account in bytes.
type EngineStats = core.Stats

// EngineStatsOf returns tr's introspection report. Every tracker in this
// module supports it; ok is false for foreign Tracker implementations.
// Collection walks the tracker's live structures, so — like Solution —
// it must be called from the goroutine driving the tracker.
func EngineStatsOf(tr Tracker) (EngineStats, bool) {
	return core.StatsFor(tr)
}

// SaveTracker checkpoints a streaming tracker's state so a service can
// restart without replaying history. Supported trackers: SieveADN,
// BasicReduction, HistApprox (plain or refined), and sharded engines
// (TrackerSpec.Shards ≥ 2) whose partitions are one of those — the
// engine envelope carries one gob snapshot per partition. The restored
// tracker (LoadTracker) makes identical decisions on the remaining
// stream.
func SaveTracker(w io.Writer, tr Tracker) error {
	var env trackerEnvelope
	var buf bytes.Buffer
	if eng, ok := tr.(*shard.Engine); ok {
		env.Kind = "shard"
		if err := eng.WriteSnapshot(&buf); err != nil {
			return err
		}
	} else if kind, write := core.SnapshotKind(tr); write != nil {
		env.Kind = kind
		if err := write(&buf); err != nil {
			return err
		}
	} else {
		return fmt.Errorf("tdnstream: tracker %s does not support snapshots", tr.Name())
	}
	env.Payload = buf.Bytes()
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("tdnstream: encode snapshot: %w", err)
	}
	return nil
}

// trackerEnvelope wraps a snapshot payload with its tracker kind so the
// whole checkpoint is a single gob stream (gob decoders read ahead, so
// concatenated streams would not be safely separable).
type trackerEnvelope struct {
	Kind    string
	Payload []byte
}

// LoadTracker restores a tracker checkpointed with SaveTracker.
func LoadTracker(r io.Reader) (Tracker, error) {
	var env trackerEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("tdnstream: decode snapshot: %w", err)
	}
	payload := bytes.NewReader(env.Payload)
	if env.Kind == "shard" {
		return shard.ReadEngineSnapshot(payload, nil)
	}
	return core.ReadSnapshot(env.Kind, payload, nil)
}
