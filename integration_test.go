package tdnstream_test

import (
	"fmt"
	"testing"

	"tdnstream"
)

// Integration sweep: every tracker over every dataset with every
// lifetime family, checking the cross-cutting invariants a downstream
// user relies on: budget respected, values consistent and non-negative,
// oracle counter monotone, time contract enforced.
func TestIntegrationAllTrackersAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	const steps = 150
	const k = 4
	trackers := map[string]func() tdnstream.Tracker{
		"sieveadn":       func() tdnstream.Tracker { return tdnstream.NewSieveADN(k, 0.2) },
		"basicreduction": func() tdnstream.Tracker { return tdnstream.NewBasicReduction(k, 0.2, 40) },
		"histapprox":     func() tdnstream.Tracker { return tdnstream.NewHistApprox(k, 0.2, 40) },
		"histrefined":    func() tdnstream.Tracker { return tdnstream.NewHistApproxRefined(k, 0.2, 40) },
		// HistApprox over two source-hash partitions, which shard.Engine
		// steps concurrently.
		"parallel-hist": func() tdnstream.Tracker {
			tr, err := tdnstream.TrackerSpec{Algo: "histapprox", K: k, Eps: 0.2, L: 40, Shards: 2}.New()
			if err != nil {
				panic(err) // the spec is a constant
			}
			return tr
		},
		"greedy": func() tdnstream.Tracker { return tdnstream.NewGreedy(k) },
		"random": func() tdnstream.Tracker { return tdnstream.NewRandom(k, 1) },
		"dim":    func() tdnstream.Tracker { return tdnstream.NewDIM(k, 1, 1) },
		"imm":    func() tdnstream.Tracker { return tdnstream.NewIMM(k, 0.4, 1) },
		"tim":    func() tdnstream.Tracker { return tdnstream.NewTIMPlus(k, 0.4, 1) },
	}
	assigners := map[string]func() tdnstream.Assigner{
		"geo":     func() tdnstream.Assigner { return tdnstream.GeometricLifetime(0.05, 40, 2) },
		"window":  func() tdnstream.Assigner { return tdnstream.ConstantLifetime(20) },
		"uniform": func() tdnstream.Assigner { return tdnstream.UniformLifetime(1, 40, 2) },
	}
	for _, ds := range tdnstream.DatasetNames() {
		in, err := tdnstream.Dataset(ds, steps)
		if err != nil {
			t.Fatal(err)
		}
		for trName, mkTr := range trackers {
			for asName, mkAs := range assigners {
				name := fmt.Sprintf("%s/%s/%s", ds, trName, asName)
				t.Run(name, func(t *testing.T) {
					pipe := tdnstream.NewPipeline(mkTr(), mkAs())
					var prevCalls uint64
					err := pipe.Run(in, func(tt int64) error {
						if tt%25 != 0 {
							return nil
						}
						sol := pipe.Solution()
						if len(sol.Seeds) > k {
							return fmt.Errorf("t=%d: budget exceeded: %d seeds", tt, len(sol.Seeds))
						}
						if sol.Value < 0 || (len(sol.Seeds) > 0 && sol.Value < len(sol.Seeds)) {
							return fmt.Errorf("t=%d: implausible value %d for %d seeds", tt, sol.Value, len(sol.Seeds))
						}
						if calls := pipe.OracleCalls(); calls < prevCalls {
							return fmt.Errorf("t=%d: oracle counter went backwards", tt)
						} else {
							prevCalls = calls
						}
						seen := map[tdnstream.NodeID]bool{}
						for _, s := range sol.Seeds {
							if seen[s] {
								return fmt.Errorf("t=%d: duplicate seed %d", tt, s)
							}
							seen[s] = true
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// The streaming trackers must agree with greedy within their proven
// factors on every dataset (greedy ≈ OPT upper bound surrogate; the
// check uses a conservative threshold well below 1/3−ε to avoid noise).
func TestIntegrationQualityFloor(t *testing.T) {
	const steps, k = 400, 5
	for _, ds := range tdnstream.DatasetNames() {
		in, err := tdnstream.Dataset(ds, steps)
		if err != nil {
			t.Fatal(err)
		}
		hist := tdnstream.NewPipeline(tdnstream.NewHistApprox(k, 0.1, 100), tdnstream.GeometricLifetime(0.01, 100, 3))
		greedy := tdnstream.NewPipeline(tdnstream.NewGreedy(k), tdnstream.GeometricLifetime(0.01, 100, 3))
		var hSum, gSum float64
		if err := hist.Run(in, func(tt int64) error {
			hSum += float64(hist.Solution().Value)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := greedy.Run(in, func(tt int64) error {
			gSum += float64(greedy.Solution().Value)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if gSum == 0 {
			continue
		}
		if ratio := hSum / gSum; ratio < 0.5 {
			t.Fatalf("%s: HistApprox/greedy time-averaged ratio %.3f below 0.5", ds, ratio)
		}
	}
}
