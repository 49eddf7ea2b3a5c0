package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tdnstream"
	"tdnstream/internal/audit"
	"tdnstream/internal/datasets"
	"tdnstream/internal/notify"
	"tdnstream/internal/stream"
)

// syncBuffer is a mutex-guarded bytes.Buffer: worker goroutines log
// into it concurrently with the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// qualityResponse mirrors handleQuality's JSON for tests.
type qualityResponse struct {
	Stream  string          `json:"stream"`
	Latest  *audit.Report   `json:"latest"`
	History []*audit.Report `json:"history"`
}

func getQuality(t *testing.T, base, name string) qualityResponse {
	t.Helper()
	code, body := get(t, base+"/v1/streams/"+name+"/quality")
	if code != http.StatusOK {
		t.Fatalf("quality %s: status %d: %s", name, code, body)
	}
	var resp qualityResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("quality JSON: %v\n%s", err, body)
	}
	return resp
}

// TestQualityEndpoint covers the deep audit endpoint for a single and a
// 2-shard stream, the cached influtrackd_quality_* gauges, and the
// sharded-only merge-gap section.
func TestQualityEndpoint(t *testing.T) {
	shardedSpec := testSpec("sharded")
	shardedSpec.Tracker.Shards = 2
	s, ts := newTestServer(t, Config{
		QueueDepth: 64,
		Streams:    []StreamSpec{testSpec("solo"), shardedSpec},
	})

	for _, name := range []string{"solo", "sharded"} {
		var b strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\",\"t\":%d}\n", i%31, (i+7)%31, i+1)
		}
		code, body := post(t, ts.URL+"/v1/ingest?stream="+name, ctNDJSON, b.String())
		if code != http.StatusOK {
			t.Fatalf("ingest %s: status %d: %s", name, code, body)
		}
		wk, _ := s.stream(name)
		waitProcessed(t, wk, 200)
	}

	solo := getQuality(t, ts.URL, "solo")
	if solo.Stream != "solo" || solo.Latest == nil {
		t.Fatalf("degenerate quality response: %+v", solo)
	}
	if solo.Latest.ServedValue <= 0 || solo.Latest.ReferenceValue <= 0 {
		t.Errorf("degenerate audit: %+v", solo.Latest)
	}
	if solo.Latest.QualityRatio <= 0 || solo.Latest.QualityRatio > 1.5 {
		t.Errorf("quality ratio %g out of plausible range", solo.Latest.QualityRatio)
	}
	if solo.Latest.OracleCalls == 0 {
		t.Error("audit reports zero oracle calls")
	}
	if solo.Latest.MergeGap != nil {
		t.Error("unsharded stream reports a merge gap")
	}
	if len(solo.History) == 0 || solo.History[len(solo.History)-1].Seq != solo.Latest.Seq {
		t.Errorf("history ring out of step with latest: %d entries", len(solo.History))
	}

	sharded := getQuality(t, ts.URL, "sharded")
	if sharded.Latest == nil || sharded.Latest.MergeGap == nil {
		t.Fatalf("sharded stream missing merge-gap section: %+v", sharded.Latest)
	}
	gap := sharded.Latest.MergeGap
	if gap.SummedPerShard <= 0 || gap.UnionRescore <= 0 {
		t.Errorf("degenerate merge gap: %+v", gap)
	}
	if gap.Ratio <= 0 || math.IsInf(gap.Ratio, 0) || math.IsNaN(gap.Ratio) {
		t.Errorf("merge gap ratio %g, want finite and > 0", gap.Ratio)
	}
	if sharded.Latest.QualityRatio <= 0 {
		t.Errorf("sharded quality ratio %g, want > 0", sharded.Latest.QualityRatio)
	}

	// Unknown stream: 404.
	if code, _ := get(t, ts.URL+"/v1/streams/nosuch/quality"); code != http.StatusNotFound {
		t.Errorf("unknown stream: status %d, want 404", code)
	}

	// The cached gauges surface on /metrics (the background audit runs on
	// the first publish; the deep calls above refreshed the cache too).
	fams := scrape(t, ts.URL)
	for _, fam := range []string{
		"influtrackd_quality_ratio", "influtrackd_topk_jaccard",
		"influtrackd_kendall_tau", "influtrackd_audit_oracle_calls",
	} {
		f := famOf(fams, fam)
		if f == nil {
			t.Fatalf("family %s missing from /metrics", fam)
		}
		streams := map[string]float64{}
		for _, smp := range f.Samples {
			streams[smp.Labels["stream"]] = smp.Value
		}
		for _, name := range []string{"solo", "sharded"} {
			if _, ok := streams[name]; !ok {
				t.Errorf("%s missing a row for stream %q", fam, name)
			}
		}
	}

	// merge_gap_ratio is sharded-only, and agrees with the deep report.
	f := famOf(fams, "influtrackd_merge_gap_ratio")
	if f == nil {
		t.Fatal("merge_gap_ratio missing from /metrics")
	}
	for _, smp := range f.Samples {
		if smp.Labels["stream"] == "solo" {
			t.Error("merge_gap_ratio rendered for the unsharded stream")
		}
	}

	// Gauge/deep agreement: the scrape followed the deep audits above
	// with no traffic in between, so the cached values are those reports.
	if f := famOf(fams, "influtrackd_quality_ratio"); f != nil {
		for _, smp := range f.Samples {
			if smp.Labels["stream"] != "solo" {
				continue
			}
			if math.Abs(smp.Value-solo.Latest.QualityRatio) > 1e-9 {
				t.Errorf("quality_ratio gauge %g != deep report %g", smp.Value, solo.Latest.QualityRatio)
			}
		}
	}
}

// TestBrightkiteQualityFloor runs the paper's quality check through the
// daemon: a 2-shard SieveADN stream over synthetic brightkite, audited
// on demand against an exact reference greedy (the budget never runs
// out), must serve at least 0.8 of the greedy value, and its merge-gap
// ratio must be finite, positive and the same on /metrics as in the
// report.
func TestBrightkiteQualityFloor(t *testing.T) {
	const steps = 4000
	in, err := datasets.Generate("brightkite", steps)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := stream.WriteCSV(&csv, in, nil); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		AuditBudget: 2_000_000,
		Streams: []StreamSpec{{
			Name:     "brightkite",
			Tracker:  tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.2, Shards: 2, Seed: 7},
			Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 100000, Seed: 7},
		}},
	})
	if code, body := post(t, ts.URL+"/v1/ingest?stream=brightkite", ctCSV, csv.String()); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	wk, _ := s.stream("brightkite")
	waitProcessed(t, wk, steps)

	rep := getQuality(t, ts.URL, "brightkite").Latest
	if rep == nil || rep.MergeGap == nil {
		t.Fatalf("audit report lacks the merge-gap section: %+v", rep)
	}
	if rep.QualityRatio < 0.8 {
		t.Errorf("quality_ratio %g under the 0.8 floor (served %d, reference %d)",
			rep.QualityRatio, rep.ServedValue, rep.ReferenceValue)
	}
	gap := rep.MergeGap.Ratio
	t.Logf("quality_ratio %g (served %d, reference %d, %d oracle calls), merge gap ratio %g",
		rep.QualityRatio, rep.ServedValue, rep.ReferenceValue, rep.OracleCalls, gap)
	if gap <= 0 || math.IsInf(gap, 0) || math.IsNaN(gap) {
		t.Errorf("merge gap ratio %g, want finite and > 0", gap)
	}
	f := famOf(scrape(t, ts.URL), "influtrackd_merge_gap_ratio")
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("merge_gap_ratio gauge: %+v", f)
	}
	if got := f.Samples[0].Value; math.Abs(got-gap) > 1e-9 {
		t.Errorf("merge_gap_ratio gauge %g != report %g", got, gap)
	}
}

// TestQualityAuth: a tokened stream's quality endpoint is gated like
// stats and explain — the audit spends worker time and oracle calls.
func TestQualityAuth(t *testing.T) {
	spec := testSpec("sec")
	spec.Token = "s3cret-token"
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{spec}})
	wk, _ := s.stream("sec")

	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest?stream=sec", strings.NewReader(
		"{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n{\"src\":\"b\",\"dst\":\"c\",\"t\":2}\n"))
	req.Header.Set("Content-Type", ctNDJSON)
	req.Header.Set("Authorization", "Bearer s3cret-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed ingest: %d", resp.StatusCode)
	}
	waitProcessed(t, wk, 2)

	if code, _ := get(t, ts.URL+"/v1/streams/sec/quality"); code != http.StatusUnauthorized {
		t.Errorf("bare quality: status %d, want 401", code)
	}
	req, _ = http.NewRequest("GET", ts.URL+"/v1/streams/sec/quality", nil)
	req.Header.Set("Authorization", "Bearer s3cret-token")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed quality: %d: %s", resp.StatusCode, body)
	}
	var got qualityResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Latest == nil || got.Latest.ServedValue <= 0 {
		t.Errorf("authed quality degenerate: %+v", got.Latest)
	}
}

// TestQualityDisabled: DisableAudit turns the whole surface off — the
// deep endpoint answers 422 and no quality gauges materialize.
func TestQualityDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DisableAudit: true,
		Streams:      []StreamSpec{testSpec("quiet")},
	})
	code, _ := post(t, ts.URL+"/v1/ingest?stream=quiet", ctNDJSON, "{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n")
	if code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	wk, _ := s.stream("quiet")
	waitProcessed(t, wk, 1)
	time.Sleep(20 * time.Millisecond)

	code, body := get(t, ts.URL+"/v1/streams/quiet/quality")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("quality with audit disabled: status %d, want 422: %s", code, body)
	}
	fams := scrape(t, ts.URL)
	if famOf(fams, "influtrackd_quality_ratio") != nil {
		t.Error("quality_ratio rendered with audit disabled")
	}
}

// TestQualityFloorEvent: an impossible floor (> 1) guarantees every
// audit regresses — the crossing must land on the push feed as a
// quality event and in the log as a Warn.
func TestQualityFloorEvent(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	s, ts := newTestServer(t, Config{
		AuditFloor: 1.1, // quality_ratio ≤ 1 by construction: always below
		Logger:     logger,
		Streams:    []StreamSpec{testSpec("f")},
	})
	sub, err := s.hub.SubscribeTypes("f", 0, []notify.EventType{notify.Quality})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\",\"t\":%d}\n", i%11, (i+3)%11, i+1)
	}
	if code, _ := post(t, ts.URL+"/v1/ingest?stream=f", ctNDJSON, b.String()); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	wk, _ := s.stream("f")
	waitProcessed(t, wk, 50)

	var quality []notify.Event
	for _, ev := range sub.Backlog {
		if ev.Type == notify.Quality {
			quality = append(quality, ev)
		}
	}
	deadline := time.After(5 * time.Second)
	for len(quality) < 1 {
		select {
		case evs, ok := <-sub.C:
			if !ok {
				t.Fatal("subscription closed before any quality event")
			}
			for _, ev := range evs {
				if ev.Type == notify.Quality {
					quality = append(quality, ev)
				}
			}
		case <-deadline:
			t.Fatal("timed out waiting for the quality event")
		}
	}
	ev := quality[0]
	if ev.Status != "quality_regressed" {
		t.Fatalf("quality event status %q, want quality_regressed", ev.Status)
	}
	if ev.Floor != 1.1 || ev.Ratio > 1 || ev.Ratio <= 0 {
		t.Fatalf("quality event ratio/floor = %g/%g", ev.Ratio, ev.Floor)
	}
	if !strings.Contains(ev.Detail, "quality_ratio") {
		t.Fatalf("quality event detail %q lacks the measurement", ev.Detail)
	}
	if !strings.Contains(logBuf.String(), "stream quality under audit floor") {
		t.Fatalf("no Warn log for the floor crossing:\n%s", logBuf.String())
	}
}

// TestQualitySuppressedWhileDegraded: the background audit hook on the
// publish path must not spend oracle calls on a degraded stream, and
// must resume once the stream heals.
func TestQualitySuppressedWhileDegraded(t *testing.T) {
	s, ts := newTestServer(t, Config{
		AuditEvery: 1, // every publish is audit-due
		Streams:    []StreamSpec{testSpec("d")},
	})
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\",\"t\":%d}\n", i%11, (i+3)%11, i+1)
	}
	if code, _ := post(t, ts.URL+"/v1/ingest?stream=d", ctNDJSON, b.String()); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	wk, _ := s.stream("d")
	waitProcessed(t, wk, 50)

	// The chunk's publish (and the audit it makes due) finishes after
	// the counter moves: wait for the worker to go idle first.
	deadline := time.Now().Add(5 * time.Second)
	for wk.auditRep.Load() == nil || wk.queueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background audit after the first publish")
		}
		time.Sleep(time.Millisecond)
	}
	seq := wk.auditRep.Load().Seq

	// Degrade the stream and force a publish with an audit due: the
	// cached report must not advance.
	wk.degraded.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := wk.do(ctx, func() {
		wk.auditor.NoteRecords(10)
		wk.publishFor(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if got := wk.auditRep.Load().Seq; got != seq {
		t.Fatalf("audit ran while degraded: seq %d → %d", seq, got)
	}

	// Heal: the still-pending cadence fires on the next publish.
	wk.degraded.Store(false)
	if err := wk.do(ctx, func() { wk.publishFor(nil) }); err != nil {
		t.Fatal(err)
	}
	if got := wk.auditRep.Load().Seq; got <= seq {
		t.Fatalf("audit did not resume after recovery: seq still %d", got)
	}
}

// TestQualityHistoryGrows: repeated deep audits advance the sequence and
// accumulate history, and the stability fields reflect a steady top-k.
func TestQualityHistoryGrows(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("h")}})
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\",\"t\":%d}\n", i%13, (i+5)%13, i+1)
	}
	if code, _ := post(t, ts.URL+"/v1/ingest?stream=h", ctNDJSON, b.String()); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	wk, _ := s.stream("h")
	waitProcessed(t, wk, 60)

	first := getQuality(t, ts.URL, "h")
	second := getQuality(t, ts.URL, "h")
	if second.Latest.Seq <= first.Latest.Seq {
		t.Fatalf("audit seq did not advance: %d then %d", first.Latest.Seq, second.Latest.Seq)
	}
	if len(second.History) <= len(first.History) && len(second.History) < audit.DefaultHistory {
		t.Errorf("history did not grow: %d then %d", len(first.History), len(second.History))
	}
	// No traffic between the two audits: identical top-k, perfect
	// stability.
	if second.Latest.TopkJaccard != 1 || second.Latest.KendallTau != 1 {
		t.Errorf("steady stream: jaccard %g tau %g, want 1/1",
			second.Latest.TopkJaccard, second.Latest.KendallTau)
	}
}
