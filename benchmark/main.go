// Command benchmark measures influtrackd end to end and layer by layer
// on three seeded workloads; workloads.go says what each one stresses.
// Run it through run.sh from the repository root, which builds the daemon
// and this driver first:
//
//	bash benchmark/run.sh --workload grow-zipf --seed 1 --seconds 10 --trace 0
//
// A run builds its inputs and request bodies from --seed before the
// daemon starts, spawns influtrackd with its write-ahead log on disk under
// fsync always and every other flag at its default, and drives it in a
// closed loop over exactly two loopback connections: one ingest producer
// and one /v1/topk poller. It then checks the served top-k against an
// in-process tdnstream.Pipeline run of the same spec over the same
// batches.
//
// --trace 0 prints the end-to-end metrics. --trace 1 repeats the
// end-to-end run with client-side spans, then pushes the same batches
// through each layer's public entry point in-process (tracker pipeline,
// influence oracle, graphs, NDJSON decode, write-ahead log, notify hub,
// quality audit, and the HTTP handler without sockets), so the gap between
// adjacent rungs is that layer's cost, and prints the per-layer metrics.
//
// Every metric is printed by name with its unit, percentiles with their
// sample counts. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The full result,
// stamped with the machine, toolchain, commit and workload settings, is
// written to <workdir>/results, next to the spans of a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // influtrackd binary
	workdir  string // write-ahead logs, daemon logs, spans and results
	records  int    // input size; 0 sizes it from seconds
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the inputs, the request bodies and the stream spec")
	flag.IntVar(&o.seconds, "seconds", 10, "run length: the input holds this many seconds of the workload's nominal rate")
	flag.IntVar(&trace, "trace", 0, "1 adds client spans and the per-layer ladder, and prints the per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "influtrackd binary to spawn")
	flag.StringVar(&o.workdir, "workdir", "", "directory for write-ahead logs, daemon logs, spans and results")
	flag.Parse()
	o.trace = trace != 0
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	sum, err := run(o, os.Stdout)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(sum); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func (o options) validate() error {
	if _, ok := workloadByName(o.workload); !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.daemon == "" || o.workdir == "" {
		return errors.New("--daemon and --workdir are required (run.sh sets both)")
	}
	return nil
}

// run executes one invocation, prints its report to out and returns the
// summary line.
func run(o options, out io.Writer) (summary, error) {
	w, _ := workloadByName(o.workload)
	n := o.records
	if n <= 0 {
		n = o.seconds * w.recPerSec
	}
	// Inputs and request bodies are built before the daemon starts, which
	// keeps generator CPU off the clock.
	in := buildInput(w, n, o.seed)
	spec := w.spec(o.seed)
	// Building the input leaves garbage behind; collecting it now keeps
	// the benchmark's own collector off the timed set-up and loop.
	runtime.GC()
	key := fmt.Sprintf("%s-seed%d-trace%t", w.name, o.seed, o.trace)
	runDir := filepath.Join(o.workdir, "run", key)
	logPrefix := filepath.Join(o.workdir, "logs", key)
	resultDir := filepath.Join(o.workdir, "results")
	for _, dir := range []string{runDir, filepath.Dir(logPrefix), resultDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return summary{}, err
		}
	}
	defer os.RemoveAll(runDir)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	sendFor := sendBudget(o.seconds)
	e2e, err := runEndToEnd(o.daemon, w, spec, in, sendFor, tr, runDir, logPrefix)
	if err != nil {
		return summary{}, err
	}
	ref, err := runCore(spec, in.batches[:e2e.loop.batches], tr)
	if err != nil {
		return summary{}, fmt.Errorf("in-process reference run: %w", err)
	}
	var tl tally
	tl.addLoop(e2e.loop)
	problems, served := checkAnswer(e2e.loop.final, e2e.loop.records, ref.final(), in.dict)
	tl.addCheck("end-to-end answer", problems)

	rep := newReport()
	if o.trace {
		if err := ladder(rep, &tl, w, spec, in, e2e, ref, sendFor, tr, runDir, logPrefix); err != nil {
			return summary{}, err
		}
	} else {
		// The served value is the tracker's own score (for a sharded stream
		// the summed merge score), so the seeds' spread is measured apart.
		endToEndMetrics(rep, e2e, spreadOf(liveGraph(ref.tracker), served))
	}

	sum := summary{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: rep.metrics}
	res := resultFile{
		Stamp:      newStamp(o, w, spec, in.records(), e2e.argv),
		Summary:    sum,
		Samples:    rep.samples,
		Extra:      rep.extra,
		ErrorRatio: float64(tl.failed) / float64(tl.attempted),
		Problems:   tl.problems,
	}
	if o.trace {
		res.SelfTimes = tr.selfTimes()
		if err := tr.write(filepath.Join(resultDir, key+"-spans.json")); err != nil {
			return summary{}, err
		}
	}
	res.print(out, rep)
	if err := writeJSONFile(filepath.Join(resultDir, key+".json"), res); err != nil {
		return summary{}, err
	}
	return sum, nil
}
