package main

import (
	"testing"
	"time"
)

func TestParseChaos(t *testing.T) {
	actions, err := parseChaos("diskfull@10s/3s, slowfsync@20s/5s/50ms ,kill@30s,eio@40s/2s")
	if err != nil {
		t.Fatal(err)
	}
	want := []chaosAction{
		{kind: "diskfull", at: 10 * time.Second, dur: 3 * time.Second},
		{kind: "slowfsync", at: 20 * time.Second, dur: 5 * time.Second, arg: 50 * time.Millisecond},
		{kind: "kill", at: 30 * time.Second},
		{kind: "eio", at: 40 * time.Second, dur: 2 * time.Second},
	}
	if len(actions) != len(want) {
		t.Fatalf("got %d actions, want %d", len(actions), len(want))
	}
	for i, a := range actions {
		if a != want[i] {
			t.Errorf("action %d = %+v, want %+v", i, a, want[i])
		}
	}
}

func TestParseChaosRejects(t *testing.T) {
	for _, bad := range []string{
		"diskfull@10s",             // needs a duration
		"slowfsync@10s/5s",         // needs a delay
		"explode@10s",              // unknown kind
		"diskfull",                 // no @start
		"kill@30s,diskfull@10s/1s", // out of order
		"diskfull@ten/3s",          // bad duration
		"eio@10s",                  // needs a duration
		"ckptfault@10s/1s",         // retired kind
	} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) accepted, want error", bad)
		}
	}
}

func TestParseChaosEmpty(t *testing.T) {
	if actions, err := parseChaos("  "); err != nil || actions != nil {
		t.Fatalf("blank schedule: got %v, %v", actions, err)
	}
}

func TestParseSLO(t *testing.T) {
	spec, err := parseSLO(" ingest_p99=50ms, query_p99=10ms ,lost_acked=0")
	if err != nil {
		t.Fatal(err)
	}
	if spec.ingestP99 != 50*time.Millisecond || spec.queryP99 != 10*time.Millisecond || spec.lostAcked != 0 {
		t.Errorf("parsed %+v", spec)
	}

	spec, err = parseSLO("quality_ratio_min=0.8")
	if err != nil {
		t.Fatal(err)
	}
	if spec.qualityRatioMin != 0.8 {
		t.Errorf("quality floor %v, want 0.8", spec.qualityRatioMin)
	}
	// An impossible floor parses fine — CI uses it to prove the gate
	// actually fails runs.
	if spec, err = parseSLO("quality_ratio_min=1.1"); err != nil || spec.qualityRatioMin != 1.1 {
		t.Errorf("impossible floor: %v, %v", spec.qualityRatioMin, err)
	}

	spec, err = parseSLO("")
	if err != nil {
		t.Fatal(err)
	}
	if spec.ingestP99 != 0 || spec.queryP99 != 0 || spec.lostAcked != -1 || spec.qualityRatioMin != -1 {
		t.Errorf("blank spec %+v, want all objectives unset", spec)
	}

	for _, bad := range []string{
		"ingest_p99",            // no value
		"ingest_p99=fast",       // bad duration
		"ingest_p99=-5ms",       // negative budget
		"query_p99=0s",          // zero budget asserts nothing — reject
		"lost_acked=-1",         // negative loss budget
		"lost_acked=a few",      // not an integer
		"error_rate=0.01",       // unknown objective
		"ingest_p99=1ms extra",  // trailing junk
		"quality_ratio_min=0",   // zero floor asserts nothing — reject
		"quality_ratio_min=bad", // not a float
	} {
		if _, err := parseSLO(bad); err == nil {
			t.Errorf("parseSLO(%q) accepted, want error", bad)
		}
	}
}

func TestEvalSLO(t *testing.T) {
	st := newStats(1)
	for i := 0; i < 100; i++ {
		st.ingestLat.Observe(2 * time.Millisecond)
		st.queryLat.Observe(time.Millisecond)
	}
	rep := &report{}
	rep.Verify.LostAcked = 3

	if got := evalSLO(sloSpec{lostAcked: -1}, st, rep); got != nil {
		t.Errorf("no objectives asserted, got %+v", got)
	}

	// Generous budgets: every check passes.
	out := evalSLO(sloSpec{ingestP99: time.Second, queryP99: time.Second, lostAcked: 3}, st, rep)
	if out == nil || !out.OK || len(out.Checks) != 3 {
		t.Fatalf("generous budgets: %+v", out)
	}
	for _, c := range out.Checks {
		if !c.OK {
			t.Errorf("check %+v failed under a generous budget", c)
		}
	}

	// Impossible latency budget and an exceeded loss budget both breach;
	// the passing objective stays OK so the report names the culprit.
	out = evalSLO(sloSpec{ingestP99: time.Nanosecond, queryP99: time.Second, lostAcked: 2}, st, rep)
	if out == nil || out.OK {
		t.Fatalf("impossible budgets passed: %+v", out)
	}
	verdicts := map[string]bool{}
	for _, c := range out.Checks {
		verdicts[c.Objective] = c.OK
	}
	if verdicts["ingest_p99"] {
		t.Error("1ns ingest budget passed")
	}
	if !verdicts["query_p99"] {
		t.Error("1s query budget failed")
	}
	if verdicts["lost_acked"] {
		t.Error("loss 3 against budget 2 passed")
	}
}

func TestEvalSLOQualityRatio(t *testing.T) {
	st := newStats(1)
	gap := 1.3
	rep := &report{Quality: &qualityReport{
		Scraped: true,
		Streams: map[string]streamQuality{
			"load-0": {QualityRatio: 0.95},
			"load-1": {QualityRatio: 0.7, MergeGapRatio: &gap},
		},
	}}

	// The worst stream (0.7) is what the floor gates.
	out := evalSLO(sloSpec{lostAcked: -1, qualityRatioMin: 0.6}, st, rep)
	if out == nil || !out.OK || len(out.Checks) != 1 || out.Checks[0].Actual != "0.7" {
		t.Fatalf("floor 0.6 vs worst 0.7: %+v", out)
	}
	out = evalSLO(sloSpec{lostAcked: -1, qualityRatioMin: 0.8}, st, rep)
	if out == nil || out.OK {
		t.Fatalf("floor 0.8 vs worst 0.7 passed: %+v", out)
	}

	// No quality section at all (audit disabled / old daemon): loud breach.
	out = evalSLO(sloSpec{lostAcked: -1, qualityRatioMin: 0.5}, st, &report{})
	if out == nil || out.OK {
		t.Fatalf("missing quality section passed the gate: %+v", out)
	}
	if out.Checks[0].Actual == "" {
		t.Error("breach on missing gauges carries no explanation")
	}
}

func TestSpawnDisablesAudit(t *testing.T) {
	for spawn, want := range map[string]bool{
		"":                                         false,
		"influtrackd -addr :8080":                  false,
		"influtrackd -audit-interval 0":            true,
		"influtrackd -audit-interval=0 -addr :1":   true,
		"influtrackd --audit-interval 0":           true,
		"influtrackd --audit-interval=0":           true,
		"influtrackd -audit-interval 5s":           false,
		"influtrackd -audit-interval=30s -addr :1": false,
	} {
		if got := spawnDisablesAudit(spawn); got != want {
			t.Errorf("spawnDisablesAudit(%q) = %v, want %v", spawn, got, want)
		}
	}
}

func TestRetryAfterDelay(t *testing.T) {
	if d := retryAfterDelay(""); d != 50*time.Millisecond {
		t.Errorf("no header: %v", d)
	}
	if d := retryAfterDelay("1"); d != time.Second {
		t.Errorf("1s header: %v", d)
	}
	if d := retryAfterDelay("30"); d != time.Second {
		t.Errorf("cap: %v", d)
	}
}
