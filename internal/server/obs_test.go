package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tdnstream/internal/metrics"
)

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, base string) []metrics.PromMetric {
	t.Helper()
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	fams, err := metrics.ParseProm(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics did not parse: %v\n%s", err, body)
	}
	return fams
}

// famOf returns one family by name, or nil.
func famOf(fams []metrics.PromMetric, name string) *metrics.PromMetric {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// TestMetricsConformance is the exposition contract: every sample belongs
// to a family with HELP and TYPE, names stay in the Prometheus-safe
// [a-z_]+ alphabet, no series is emitted twice, and the serving-path
// summaries the issue promises (ingest, topk, WAL commit, worker batch)
// are present with p50/p99/p999 quantiles.
func TestMetricsConformance(t *testing.T) {
	walSpec := testSpec("walstream")
	walSpec.WAL = WALOn
	plainSpec := testSpec("plain")
	plainSpec.WAL = WALOff // WALDir alone opts every stream in
	s, ts := newTestServer(t, Config{
		QueueDepth: 64,
		WALDir:     t.TempDir(),
		Streams:    []StreamSpec{plainSpec, walSpec},
		BuildLabels: map[string]string{
			"shards": "1",
		},
	})

	for _, name := range []string{"plain", "walstream"} {
		var b strings.Builder
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"hub\",\"t\":%d}\n", i%17, i+1)
		}
		code, body := post(t, ts.URL+"/v1/ingest?stream="+name, ctNDJSON, b.String())
		if code != http.StatusOK {
			t.Fatalf("ingest %s: status %d: %s", name, code, body)
		}
		wk, _ := s.stream(name)
		waitProcessed(t, wk, 100)
		topK(t, ts.URL, name)
	}

	fams := scrape(t, ts.URL)
	nameRe := regexp.MustCompile(`^[a-z_]+$`)
	seen := map[string]bool{}
	for _, f := range fams {
		if f.Help == "" {
			t.Errorf("family %s has no # HELP", f.Name)
		}
		if f.Type == "" {
			t.Errorf("family %s has no # TYPE", f.Name)
		}
		for _, smp := range f.Samples {
			if !nameRe.MatchString(smp.Name) {
				t.Errorf("sample name %q outside [a-z_]+", smp.Name)
			}
			if k := smp.Key(); seen[k] {
				t.Errorf("duplicate series %s", k)
			} else {
				seen[k] = true
			}
		}
	}

	wantQuantiles := map[string]bool{"0.5": true, "0.99": true, "0.999": true}
	for _, tc := range []struct {
		family  string
		streams []string
	}{
		{"influtrackd_ingest_request_seconds", []string{"plain", "walstream"}},
		{"influtrackd_topk_request_seconds", []string{"plain", "walstream"}},
		{"influtrackd_worker_batch_seconds", []string{"plain", "walstream"}},
		{"influtrackd_wal_commit_seconds", []string{"walstream"}},
		{"influtrackd_notify_publish_seconds", []string{"plain", "walstream"}},
	} {
		f := famOf(fams, tc.family)
		if f == nil {
			t.Fatalf("family %s missing from /metrics", tc.family)
		}
		if f.Type != "summary" {
			t.Fatalf("family %s: type %q, want summary", tc.family, f.Type)
		}
		for _, stream := range tc.streams {
			got := map[string]bool{}
			var count float64 = -1
			for _, smp := range f.Samples {
				if smp.Labels["stream"] != stream {
					continue
				}
				if q := smp.Labels["quantile"]; q != "" {
					got[q] = true
				}
				if smp.Name == tc.family+"_count" {
					count = smp.Value
				}
			}
			for q := range wantQuantiles {
				if !got[q] {
					t.Errorf("%s{stream=%q}: quantile %s missing", tc.family, stream, q)
				}
			}
			if count <= 0 {
				t.Errorf("%s_count{stream=%q} = %g, want > 0", tc.family, stream, count)
			}
		}
	}

	// The WAL summary must not leak onto WAL-less streams.
	if f := famOf(fams, "influtrackd_wal_commit_seconds"); f != nil {
		for _, smp := range f.Samples {
			if smp.Labels["stream"] == "plain" {
				t.Errorf("wal_commit_seconds rendered for WAL-less stream: %s", smp.Key())
			}
		}
	}

	// Engine-introspection gauges round-trip through ParseProm with one
	// sample per stream; the structural counts must be live.
	for _, fam := range []string{
		"influtrackd_engine_bytes", "influtrackd_engine_instances",
		"influtrackd_engine_nodes", "influtrackd_engine_edges",
	} {
		f := famOf(fams, fam)
		if f == nil {
			t.Fatalf("family %s missing from /metrics", fam)
		}
		if f.Type != "gauge" {
			t.Errorf("family %s: type %q, want gauge", fam, f.Type)
		}
		byStream := map[string]float64{}
		for _, smp := range f.Samples {
			byStream[smp.Labels["stream"]] = smp.Value
		}
		for _, stream := range []string{"plain", "walstream"} {
			if v, ok := byStream[stream]; !ok || v <= 0 {
				t.Errorf("%s{stream=%q} = %g, want > 0", fam, stream, v)
			}
		}
	}

	// The WAL applied watermark is a gauge pair on WAL-backed streams only.
	for _, fam := range []string{"influtrackd_wal_applied_segment", "influtrackd_wal_applied_offset"} {
		f := famOf(fams, fam)
		if f == nil {
			t.Fatalf("family %s missing from /metrics", fam)
		}
		streams := map[string]bool{}
		for _, smp := range f.Samples {
			streams[smp.Labels["stream"]] = true
		}
		if streams["plain"] {
			t.Errorf("%s rendered for WAL-less stream", fam)
		}
		if !streams["walstream"] {
			t.Errorf("%s missing for WAL-backed stream", fam)
		}
	}

	// batch_latency_seconds retired in favor of the worker_batch_seconds
	// summary — the old point gauge must not resurface.
	if famOf(fams, "influtrackd_batch_latency_seconds") != nil {
		t.Error("retired batch_latency_seconds gauge rendered")
	}

	bi := famOf(fams, "influtrackd_build_info")
	if bi == nil || len(bi.Samples) != 1 {
		t.Fatalf("build_info: %+v", bi)
	}
	for _, label := range []string{"version", "go", "os", "arch", "revision", "shards"} {
		if bi.Samples[0].Labels[label] == "" {
			t.Errorf("build_info label %q missing", label)
		}
	}
	if bi.Samples[0].Value != 1 {
		t.Errorf("build_info value %g, want 1", bi.Samples[0].Value)
	}

	// Record-lifecycle stage summaries cover the pipeline end to end.
	stageFam := famOf(fams, "influtrackd_stage_seconds")
	if stageFam == nil {
		t.Fatal("stage_seconds missing from /metrics")
	}
	stages := map[string]bool{}
	for _, smp := range stageFam.Samples {
		stages[smp.Labels["stage"]] = true
	}
	for _, want := range []string{"decode", "intern", "queue_wait", "tracker_step", "snapshot_publish"} {
		if !stages[want] {
			t.Errorf("stage_seconds: stage %q missing (have %v)", want, stages)
		}
	}
	if !stages["wal_append"] || !stages["wal_commit"] {
		t.Errorf("stage_seconds: WAL stages missing (have %v)", stages)
	}

	for _, name := range []string{"influtrackd_uptime_seconds", "influtrackd_go_goroutines", "influtrackd_slow_requests_total"} {
		if famOf(fams, name) == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
}

// traceResponse mirrors handleTrace's JSON for tests.
type traceResponse struct {
	Stream          string                    `json:"stream"`
	SlowThresholdMs float64                   `json:"slow_threshold_ms"`
	SlowRequests    uint64                    `json:"slow_requests"`
	Recent          int                       `json:"recent"`
	Request         stageStatsJSON            `json:"request"`
	Stages          map[string]stageStatsJSON `json:"stages"`
	Traces          []traceJSON               `json:"traces"`
}

// TestTraceEndpointStageSum is the tiling check behind the trace
// endpoint's claim: on a single-chunk request the per-stage spans cover
// the request wall time, so their sum lands within 10% of the measured
// total (plus a small absolute epsilon for scheduler noise on the
// boundaries between spans). The stream runs in arrival mode, so the
// chunk is one tracker step rather than one step per event time, which
// keeps the request short under -race.
func TestTraceEndpointStageSum(t *testing.T) {
	spec := testSpec("traced")
	spec.TimeMode = TimeArrival
	s, ts := newTestServer(t, Config{
		QueueDepth: 64,
		MaxChunk:   1 << 20, // one chunk per request: stages tile the wall time
		Streams:    []StreamSpec{spec},
	})

	const records = 20000
	var b strings.Builder
	for i := 0; i < records; i++ {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"m%d\",\"t\":%d}\n", i%211, i%97, i+1)
	}
	body := b.String()
	code, resp := post(t, ts.URL+"/v1/ingest?stream=traced", ctNDJSON, body)
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, resp)
	}
	wk, _ := s.stream("traced")
	waitProcessed(t, wk, records)

	// The trace finalizes when its last reference drops — normally before
	// the ingest response is written, but poll briefly to be safe.
	var tr traceResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, ts.URL+"/v1/streams/traced/trace?n=5")
		if code != http.StatusOK {
			t.Fatalf("trace: status %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("trace JSON: %v\n%s", err, body)
		}
		if len(tr.Traces) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := tr.Traces[0]
	if got.Status != http.StatusOK {
		t.Errorf("trace status %d, want 200", got.Status)
	}
	if got.Records != records {
		t.Errorf("trace records %d, want %d", got.Records, records)
	}
	if got.Chunks != 1 {
		t.Errorf("trace chunks %d, want 1 (MaxChunk covers the body)", got.Chunks)
	}
	if got.TotalMs <= 0 {
		t.Fatalf("trace total %g ms, want > 0", got.TotalMs)
	}
	diff := got.StageSumMs - got.TotalMs
	if diff < 0 {
		diff = -diff
	}
	if tol := 0.10*got.TotalMs + 1.0; diff > tol {
		t.Errorf("stage sum %.3f ms vs total %.3f ms: |diff| %.3f > %.3f (stages %v)",
			got.StageSumMs, got.TotalMs, diff, tol, got.Stages)
	}
	if tr.Request.Count == 0 {
		t.Error("request aggregate has no observations")
	}
	if len(tr.Stages) == 0 {
		t.Error("no stage aggregates")
	}

	// Bad ?n= is a client error, unknown stream a 404.
	if code, _ := get(t, ts.URL+"/v1/streams/traced/trace?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/streams/nosuch/trace"); code != http.StatusNotFound {
		t.Errorf("unknown stream: status %d, want 404", code)
	}
}

// Tracing off: no recorder, a 404 trace endpoint, and no stage summaries
// on /metrics — the serving-path summaries stay.
func TestTracingDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{
		QueueDepth:     64,
		DisableTracing: true,
		Streams:        []StreamSpec{testSpec("quiet")},
	})
	code, _ := post(t, ts.URL+"/v1/ingest?stream=quiet", ctNDJSON, "{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n")
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	wk, _ := s.stream("quiet")
	waitProcessed(t, wk, 1)
	if code, _ := get(t, ts.URL+"/v1/streams/quiet/trace"); code != http.StatusNotFound {
		t.Errorf("trace with tracing disabled: status %d, want 404", code)
	}
	fams := scrape(t, ts.URL)
	if famOf(fams, "influtrackd_stage_seconds") != nil {
		t.Error("stage_seconds rendered with tracing disabled")
	}
	f := famOf(fams, "influtrackd_ingest_request_seconds")
	if f == nil {
		t.Fatal("ingest_request_seconds missing with tracing disabled")
	}
}

// TestMetricsScrapeRace hammers the ingest path from many goroutines
// while /metrics and the trace endpoint scrape concurrently — the
// histogram and recorder read/write paths must be race-clean (this test
// earns its keep under -race in CI).
func TestMetricsScrapeRace(t *testing.T) {
	s, ts := newTestServer(t, Config{
		QueueDepth: 256,
		Streams:    []StreamSpec{testSpec("racy")},
	})

	const (
		writers  = 8
		requests = 20
		perBody  = 25
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				var b strings.Builder
				base := (g*requests + i) * perBody
				for j := 0; j < perBody; j++ {
					fmt.Fprintf(&b, "{\"src\":\"s%d\",\"dst\":\"hub\",\"t\":%d}\n", j%7, base+j+1)
				}
				resp, err := http.Post(ts.URL+"/v1/ingest?stream=racy", ctNDJSON, strings.NewReader(b.String()))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/v1/streams/racy/trace")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	// Wait for the writers by watching the ingested counter, then stop
	// the scrapers and join everyone.
	wk, _ := s.stream("racy")
	deadline := time.Now().Add(30 * time.Second)
	for wk.m.ingested.Load() < writers*requests*perBody {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := wk.m.ingestLat.Count(); got < writers*requests {
		t.Errorf("ingest histogram count %d, want >= %d", got, writers*requests)
	}
}
