package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tdnstream/internal/server"
)

// metric is one measurement on the summary line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics in the order they are emitted, with
// the sample count behind every percentile. Extra metrics are printed
// and recorded but stay off the summary line.
type report struct {
	names   []string
	metrics map[string]metric
	extra   map[string]metric
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), extra: make(map[string]metric), samples: make(map[string]int)}
}

// addExtra records the q-quantile of samples off the summary line.
func (r *report) addExtra(name, unit string, samples []float64, q float64) {
	v := quantile(samples, q)
	if math.IsNaN(v) {
		v = 0
	}
	r.names = append(r.names, name)
	r.extra[name] = metric{Value: v, Unit: unit}
	r.samples[name] = len(samples)
}

// add records a metric. A value that cannot be measured, such as a rate
// over no records after a failed run, is reported as 0.
func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// addQuantile records the q-quantile of samples, with their count.
func (r *report) addQuantile(name, unit string, samples []float64, q float64) {
	r.add(name, unit, quantile(samples, q))
	r.samples[name] = len(samples)
}

// quantile is the nearest-rank q-quantile of the raw samples: exact, with
// no histogram buckets between the samples and the figure.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// scaled converts durations to samples counted in unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// tally counts a run's requests and answer checks; a failed check counts
// as a failed attempt, as a failed request does.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) addLoop(l loopResult) {
	t.attempted += l.attempted
	t.failed += l.failed
	t.problems = append(t.problems, l.errs...)
}

func (t *tally) addCheck(what string, problems []string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
	}
	for _, p := range problems {
		t.problems = append(t.problems, what+": "+p)
	}
}

// stamp records what a result was measured on, and how.
type stamp struct {
	Nproc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Records    int               `json:"records"`
	Batch      int               `json:"batch_records"`
	DaemonArgv []string          `json:"daemon_argv"`
	Stream     server.StreamSpec `json:"stream_spec"`
	Loop       string            `json:"loop"`
	Window     int               `json:"window"`
	PollEvery  string            `json:"poll_every"`
}

func newStamp(o options, w workload, spec server.StreamSpec, records int, argv []string) stamp {
	return stamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
		Workload:   w.name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Records:    records,
		Batch:      batchSize,
		DaemonArgv: argv,
		Stream:     spec,
		Loop:       "closed: one producer keeps at most window request batches sent but not yet visible to one /v1/topk poller",
		Window:     w.window,
		PollEvery:  w.pollEvery.String(),
	}
}

// cpuModel is the first model name /proc/cpuinfo reports.
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD commit straight from .git, so no
// git process runs and nothing outside the checkout is read. A checkout
// without .git reports "unknown".
func gitCommit(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	// A missing packed-refs file reads as empty, and the ref as unknown.
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// resultFile is the full record of one run, written to <workdir>/results.
type resultFile struct {
	Stamp      stamp             `json:"stamp"`
	Summary    summary           `json:"summary"`
	Samples    map[string]int    `json:"samples"`
	Extra      map[string]metric `json:"extra,omitempty"`
	ErrorRatio float64           `json:"error_ratio"`
	Problems   []string          `json:"problems,omitempty"`
	SelfTimes  []selfTime        `json:"self_times,omitempty"`
}

// print writes the readable report: the stamp, every metric with its unit
// and sample count, the error ratio, span self times and problems.
func (r *resultFile) print(w io.Writer, rep *report) {
	if st, err := json.Marshal(r.Stamp); err == nil {
		fmt.Fprintf(w, "# stamp %s\n", st)
	}
	for _, name := range rep.names {
		m, ok := rep.metrics[name]
		if !ok {
			m = rep.extra[name]
		}
		fmt.Fprintf(w, "%-28s %16.6f %s", name, m.Value, m.Unit)
		if n, ok := rep.samples[name]; ok {
			fmt.Fprintf(w, " (n=%d)", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-28s %16.6f ratio (%d of %d attempts failed)\n",
		"error_ratio", r.ErrorRatio, r.Summary.Failed, r.Summary.Attempted)
	for _, s := range r.SelfTimes {
		fmt.Fprintf(w, "# span %-28s n=%-8d total %12.3f ms  self %12.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
