package tdnstream_test

import (
	"fmt"
	"strings"
	"testing"

	"tdnstream"
)

// goldenRun is one pinned tracker configuration, run the way
//
//	influtrack -steps 3000 -k 5 -eps 0.2 -p 0.005 -report 500 -seed 42
//
// runs it with the given -dataset, -algo, -L and -shards, and the lines
// that command prints with the column padding squeezed out.
type goldenRun struct {
	dataset, algo string
	L, shards     int
	want          string
}

// goldenRuns pins every reported value, seed list and oracle-call count
// of nine configurations. Trackers are deterministic, so a change that
// is meant to leave decisions alone must reproduce these lines byte for
// byte; a change that alters them on purpose re-records them and says
// why.
var goldenRuns = []goldenRun{
	{"brightkite", "histapprox", 500, 0, `
t=500 value=77 calls=31239 seeds=62,224,237,303,368
t=1000 value=98 calls=62559 seeds=36,157,231,305,385
t=1500 value=122 calls=105528 seeds=36,202,256,397
t=2000 value=94 calls=140570 seeds=27,92,203,364,399
t=2500 value=64 calls=170822 seeds=118,147,225,252,333
t=3000 value=78 calls=203005 seeds=57,90,131,215,285
final: value=78 calls=203005 seeds=57,90,131,215,285`},
	{"brightkite", "histapprox-refined", 500, 0, `
t=500 value=77 calls=31239 seeds=62,224,237,303,368
t=1000 value=96 calls=62577 seeds=36,157,231,385
t=1500 value=126 calls=105571 seeds=36,202,256,397
t=2000 value=94 calls=140613 seeds=27,92,203,364,399
t=2500 value=64 calls=170865 seeds=118,147,225,252,333
t=3000 value=89 calls=203084 seeds=57,90,223,350,385
final: value=89 calls=203120 seeds=57,90,223,350,385`},
	{"brightkite", "sieveadn", 10000, 0, `
t=500 value=193 calls=2777 seeds=62,224,237,303,368
t=1000 value=254 calls=3491 seeds=4,36,224,231,303
t=1500 value=307 calls=4683 seeds=4,36,224,231,303
t=2000 value=378 calls=5467 seeds=36,202,303,397
t=2500 value=380 calls=6076 seeds=36,202,303,397
t=3000 value=382 calls=6616 seeds=36,202,303,397
final: value=382 calls=6616 seeds=36,202,303,397`},
	{"brightkite", "basicreduction", 200, 0, `
t=500 value=53 calls=497024 seeds=4,224,231,237,303
t=1000 value=88 calls=962608 seeds=36,157,385
t=1500 value=94 calls=1573902 seeds=202,256,397
t=2000 value=75 calls=2064966 seeds=27,92,203,364,399
t=2500 value=52 calls=2465096 seeds=138,147,252,275,335
t=3000 value=84 calls=2896450 seeds=51,57,90,285,350
final: value=84 calls=2896450 seeds=51,57,90,285,350`},
	{"brightkite", "histapprox", 500, 2, `
t=500 value=90 calls=36481 seeds=4,224,237,303,368
t=1000 value=111 calls=71703 seeds=36,157,231,286,385
t=1500 value=140 calls=113331 seeds=36,202,256,397
t=2000 value=110 calls=150274 seeds=27,92,203,338,364
t=2500 value=74 calls=182871 seeds=118,138,252,333,335
t=3000 value=93 calls=218228 seeds=57,90,285,350,385
final: value=93 calls=218228 seeds=57,90,285,350,385`},
	{"brightkite", "sieveadn", 10000, 3, `
t=500 value=234 calls=4275 seeds=62,224,237,303,368
t=1000 value=309 calls=6777 seeds=4,36,224,237,303
t=1500 value=470 calls=9338 seeds=36,202,224,303,397
t=2000 value=538 calls=10824 seeds=36,92,202,303,397
t=2500 value=547 calls=11878 seeds=36,202,252,303,397
t=3000 value=562 calls=12771 seeds=36,202,223,252,397
final: value=562 calls=12771 seeds=36,202,223,252,397`},
	{"twitter-higgs", "histapprox", 500, 0, `
t=500 value=73 calls=32504 seeds=997,1904,1995
t=1000 value=87 calls=70628 seeds=997,1904,1995
t=1500 value=125 calls=113935 seeds=997,1463,1904
t=2000 value=114 calls=157504 seeds=997,1447,1995
t=2500 value=88 calls=195633 seeds=1995
t=3000 value=93 calls=230859 seeds=273,997,1904,1995,2294
final: value=93 calls=230859 seeds=273,997,1904,1995,2294`},
	{"twitter-higgs", "histapprox-refined", 500, 0, `
t=500 value=87 calls=32569 seeds=997,1904,1995
t=1000 value=89 calls=70720 seeds=997,1904,1995
t=1500 value=133 calls=114048 seeds=997,1463,1904
t=2000 value=114 calls=157617 seeds=997,1447,1995
t=2500 value=88 calls=195746 seeds=1995
t=3000 value=102 calls=231009 seeds=273,997,1904,1995,2294
final: value=102 calls=231046 seeds=273,997,1904,1995,2294`},
	{"twitter-higgs", "sieveadn", 10000, 0, `
t=500 value=293 calls=4075 seeds=997,1904,1995
t=1000 value=603 calls=13572 seeds=997,1995
t=1500 value=916 calls=22158 seeds=997,1995
t=2000 value=1184 calls=42440 seeds=997,1995
t=2500 value=1464 calls=77934 seeds=997,1995
t=3000 value=1635 calls=151518 seeds=997,1995
final: value=1635 calls=151518 seeds=997,1995`},
}

// TestGoldenTrackerAnswers replays the pinned configurations and
// compares every line. The final line asks for a second Solution after
// the last step, which a refined HistApprox answers with a fresh head
// refinement, so its call count can exceed the last report's.
func TestGoldenTrackerAnswers(t *testing.T) {
	const (
		steps  = 3000
		k      = 5
		eps    = 0.2
		p      = 0.005
		seed   = 42
		report = 500
	)
	for _, g := range goldenRuns {
		name := fmt.Sprintf("%s/%s/L=%d/shards=%d", g.dataset, g.algo, g.L, g.shards)
		t.Run(name, func(t *testing.T) {
			tr, err := tdnstream.TrackerSpec{Algo: g.algo, K: k, Eps: eps, L: g.L, Seed: seed, Shards: g.shards}.New()
			if err != nil {
				t.Fatal(err)
			}
			in, err := tdnstream.Dataset(g.dataset, steps)
			if err != nil {
				t.Fatal(err)
			}
			assign, err := tdnstream.LifetimeSpec{Policy: "geometric", P: p, L: g.L, Seed: seed}.New()
			if err != nil {
				t.Fatal(err)
			}
			pipe := tdnstream.NewPipeline(tr, assign)
			var got []string
			line := func(prefix string) {
				sol := pipe.Solution()
				seeds := make([]string, len(sol.Seeds))
				for i, s := range sol.Seeds {
					seeds[i] = fmt.Sprint(s)
				}
				got = append(got, fmt.Sprintf("%svalue=%d calls=%d seeds=%s",
					prefix, sol.Value, pipe.OracleCalls(), strings.Join(seeds, ",")))
			}
			err = pipe.Run(in, func(t int64) error {
				if t%report == 0 {
					line(fmt.Sprintf("t=%d ", t))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			line("final: ")
			want := strings.Split(strings.TrimSpace(g.want), "\n")
			if len(got) != len(want) {
				t.Fatalf("%d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
				}
			}
		})
	}
}
