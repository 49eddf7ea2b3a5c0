package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// daemonBin is influtrackd, built once for the package's tests.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "influtrackd")
	build := exec.Command("go", "build", "-o", daemonBin, "tdnstream/cmd/influtrackd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build influtrackd:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared is the part of BENCHMARK.json the driver must match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryWorkloadAndRung runs every workload on a tiny input, untraced
// and traced: the answer check must pass, and exactly the metrics
// BENCHMARK.json declares for the mode must come out, each in its unit.
func TestEveryWorkloadAndRung(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the driver runs %v", names, workloadNames())
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				o := options{workload: w.name, seed: 7, seconds: 1, trace: trace,
					daemon: daemonBin, workdir: t.TempDir(), records: 3 * batchSize}
				sum, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !sum.Correct || sum.Failed != 0 {
					t.Fatalf("correct %t: %d of %d attempts failed", sum.Correct, sum.Failed, sum.Attempted)
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := sum.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s emitted in %s, declared in %s", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "step", Start: 10, End: 40, Parent: 0},
		{Name: "step", Start: 30, End: 60, Parent: 0},
		{Name: "solution", Start: 90, End: 120, Parent: 0},
	}
	// The children cover [10,60] and [90,100] of the batch: 60 ns of 100.
	got := selfTimesOf(spans)
	if got[0].Name != "batch" || got[0].SelfMs != 40/1e6 {
		t.Fatalf("batch self time %v ms, want %v", got[0].SelfMs, 40/1e6)
	}
}
