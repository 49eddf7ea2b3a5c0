// Command influtrack streams an interaction dataset through a tracker
// and periodically reports the current influential nodes.
//
// Input is a built-in synthetic dataset (-dataset), a CSV file of
// "src,dst,t" rows (-csv), or an NDJSON file of {"src","dst","t"} records
// (-ndjson). Pass "-" as the -csv or -ndjson path to read from stdin, so
// the batch CLI can be fed by the same producers as the influtrackd
// daemon:
//
//	datagen -dataset brightkite -steps 5000 | influtrack -csv - -algo histapprox -k 10
//
// Usage:
//
//	influtrack -dataset brightkite -steps 5000 -algo histapprox -k 10 \
//	           -eps 0.1 -L 10000 -p 0.001 -report 500
//	influtrack -csv interactions.csv -algo greedy -k 5
//	influtrack -ndjson - -algo sieveadn -k 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdnstream"
)

// openInput resolves an input path, with "-" meaning stdin.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func main() {
	dataset := flag.String("dataset", "brightkite", "built-in dataset name")
	csvPath := flag.String("csv", "", `CSV file of src,dst,t rows ("-" = stdin; overrides -dataset)`)
	ndjsonPath := flag.String("ndjson", "", `NDJSON file of {"src","dst","t"} records ("-" = stdin; overrides -dataset)`)
	steps := flag.Int64("steps", 5000, "stream length for built-in datasets")
	algo := flag.String("algo", "histapprox", strings.Join(tdnstream.TrackerAlgos(), " | "))
	k := flag.Int("k", 10, "seed budget")
	eps := flag.Float64("eps", 0.1, "approximation granularity ε")
	L := flag.Int("L", 10000, "maximum lifetime")
	p := flag.Float64("p", 0.001, "geometric lifetime parameter (forgetting probability)")
	window := flag.Int("window", 0, "use a sliding window of this width instead of geometric decay")
	seed := flag.Int64("seed", 42, "random seed (lifetimes, randomized algorithms)")
	report := flag.Int64("report", 500, "print the solution every this many steps")
	shards := flag.Int("shards", 0, "≥ 2 partitions the stream by source-node hash across this many tracker instances with a global top-k merge")
	flag.Parse()

	// Only forward -eps when the user set it, so TrackerSpec can apply its
	// per-algorithm defaults (0.1 for the sieve family, the paper's 0.3
	// for imm/timplus).
	specEps := 0.0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "eps" {
			specEps = *eps
		}
	})
	tracker, err := tdnstream.TrackerSpec{
		Algo: *algo, K: *k, Eps: specEps, L: *L, Seed: *seed, Shards: *shards,
	}.New()
	if err != nil {
		fmt.Fprintf(os.Stderr, "influtrack: %v\n", err)
		os.Exit(2)
	}

	var (
		in   []tdnstream.Interaction
		dict *tdnstream.Dict
	)
	switch {
	case *csvPath != "" || *ndjsonPath != "":
		path, read := *csvPath, tdnstream.ReadCSV
		if *ndjsonPath != "" {
			path, read = *ndjsonPath, tdnstream.ReadNDJSON
		}
		f, ferr := openInput(path)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "influtrack: %v\n", ferr)
			os.Exit(1)
		}
		dict = tdnstream.NewDict()
		in, err = read(f, dict)
		f.Close()
	default:
		in, err = tdnstream.Dataset(*dataset, *steps)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "influtrack: %v\n", err)
		os.Exit(1)
	}

	lspec := tdnstream.LifetimeSpec{Policy: "geometric", P: *p, L: *L, Seed: *seed}
	if *window > 0 {
		lspec = tdnstream.LifetimeSpec{Policy: "constant", Window: *window}
	}
	assign, err := lspec.New()
	if err != nil {
		fmt.Fprintf(os.Stderr, "influtrack: %v\n", err)
		os.Exit(2)
	}

	pipe := tdnstream.NewPipeline(tracker, assign)
	label := func(n tdnstream.NodeID) string {
		if dict != nil {
			return dict.Name(n)
		}
		return fmt.Sprint(n)
	}
	err = pipe.Run(in, func(t int64) error {
		if *report > 0 && t%*report == 0 {
			sol := pipe.Solution()
			names := make([]string, len(sol.Seeds))
			for i, s := range sol.Seeds {
				names[i] = label(s)
			}
			fmt.Printf("t=%-8d value=%-6d calls=%-10d seeds=%s\n",
				t, sol.Value, pipe.OracleCalls(), strings.Join(names, ","))
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "influtrack: %v\n", err)
		os.Exit(1)
	}
	sol := pipe.Solution()
	names := make([]string, len(sol.Seeds))
	for i, s := range sol.Seeds {
		names[i] = label(s)
	}
	fmt.Printf("final: algo=%s value=%d calls=%d seeds=%s\n",
		tracker.Name(), sol.Value, pipe.OracleCalls(), strings.Join(names, ","))
}
