package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tdnstream"
	"tdnstream/internal/audit"
	"tdnstream/internal/obs"
)

// readBundle unpacks a tar.gz bundle into member-name → contents.
func readBundle(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("bundle is not valid gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	members := make(map[string][]byte)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar is corrupt: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("member %s: %v", hdr.Name, err)
		}
		members[hdr.Name] = body
	}
	if err := gz.Close(); err != nil {
		t.Fatalf("gzip trailer: %v", err)
	}
	return members
}

func TestBundleRoundTrip(t *testing.T) {
	const secret = "supersecret-bearer-0451"
	walDir := t.TempDir()
	flight := obs.NewFlight(64, nil)
	guarded := testSpec("guarded")
	guarded.Token = secret
	s, ts := newTestServer(t, Config{
		WALDir:  walDir,
		Flight:  flight,
		Streams: []StreamSpec{testSpec("open"), guarded},
	})

	code, _ := post(t, ts.URL+"/v1/ingest?stream=open", "application/x-ndjson",
		ndjsonBody(t, []tdnstream.Interaction{{Src: 1, Dst: 2, T: 1}, {Src: 2, Dst: 3, T: 2}}))
	if code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	wk, _ := s.stream("open")
	waitProcessed(t, wk, 2)
	flight.Record(obs.EventWALDegraded, "open", "write-ahead log fault", "injected EIO for the bundle test")

	var buf bytes.Buffer
	if err := s.WriteBundle(&buf, BundleOptions{}); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	members := readBundle(t, buf.Bytes())

	for _, want := range []string{
		"meta.json", "flight.json", "metrics.prom", "health.json", "config.json",
		"streams/open/info.json", "streams/guarded/info.json",
		"profiles/goroutine.txt", "profiles/heap.pprof",
		"wal/files.txt",
	} {
		if _, ok := members[want]; !ok {
			names := make([]string, 0, len(members))
			for n := range members {
				names = append(names, n)
			}
			t.Fatalf("bundle lacks member %s; has %v", want, names)
		}
	}
	if _, ok := members["errors.txt"]; ok {
		t.Fatalf("collection errors: %s", members["errors.txt"])
	}

	// The bearer token must be unrepresentable anywhere in the archive.
	for name, body := range members {
		if bytes.Contains(body, []byte(secret)) {
			t.Fatalf("member %s leaks the stream token", name)
		}
	}
	if !bytes.Contains(members["config.json"], []byte(redactedToken)) {
		t.Fatalf("config.json should mark the guarded stream's token as %s:\n%s",
			redactedToken, members["config.json"])
	}

	var meta struct {
		Reason string `json:"reason"`
		PID    int    `json:"pid"`
	}
	if err := json.Unmarshal(members["meta.json"], &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Reason != "request" || meta.PID != os.Getpid() {
		t.Fatalf("meta = %+v", meta)
	}

	var fdoc struct {
		Events []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(members["flight.json"], &fdoc); err != nil {
		t.Fatalf("flight.json: %v", err)
	}
	found := false
	for _, ev := range fdoc.Events {
		if ev.Kind == obs.EventWALDegraded && ev.Errno == "injected EIO for the bundle test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight.json lacks the recorded degrade event: %s", members["flight.json"])
	}

	if !bytes.Contains(members["metrics.prom"], []byte("influtrackd_health_score")) {
		t.Fatal("metrics.prom snapshot lacks the health score gauge")
	}
	var health struct {
		Score      float64          `json:"score"`
		Components []map[string]any `json:"components"`
	}
	if err := json.Unmarshal(members["health.json"], &health); err != nil {
		t.Fatalf("health.json: %v", err)
	}
	if health.Score != 1 || len(health.Components) != len(healthComponentOrder) {
		t.Fatalf("health.json = %+v", health)
	}
	if !bytes.Contains(members["wal/files.txt"], []byte("open/")) {
		t.Fatalf("wal listing lacks the open stream's segment dir:\n%s", members["wal/files.txt"])
	}
}

func TestBundleHandlerServesTarGz(t *testing.T) {
	s, _ := newTestServer(t, Config{Streams: []StreamSpec{testSpec("a")}})
	rr := httptest.NewRecorder()
	s.BundleHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/admin/debug/bundle", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("Content-Type %q", ct)
	}
	members := readBundle(t, rr.Body.Bytes())
	if _, ok := members["meta.json"]; !ok {
		t.Fatal("handler bundle lacks meta.json")
	}

	rr = httptest.NewRecorder()
	s.BundleHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/admin/debug/bundle?cpu=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad cpu param: status %d, want 400", rr.Code)
	}
}

func TestPostmortemOnPanicWritesReadableBundle(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{Streams: []StreamSpec{testSpec("a")}})

	var wrotePath string
	h := obs.RecoverHandler(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom: test-induced handler panic")
	}), func(v any) {
		p, err := s.WritePostmortem(dir, "panic")
		if err != nil {
			t.Errorf("WritePostmortem: %v", err)
		}
		wrotePath = p
	})

	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("RecoverHandler must re-panic after the postmortem hook")
			}
			if s, ok := v.(string); !ok || !strings.Contains(s, "kaboom") {
				t.Fatalf("re-panicked with %v, want the original value", v)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()

	if wrotePath == "" {
		t.Fatal("onPanic hook never ran")
	}
	data, err := os.ReadFile(wrotePath)
	if err != nil {
		t.Fatalf("postmortem file: %v", err)
	}
	members := readBundle(t, data)
	var meta struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(members["meta.json"], &meta); err != nil {
		t.Fatalf("postmortem meta.json: %v", err)
	}
	if meta.Reason != "panic" {
		t.Fatalf("postmortem reason %q, want panic", meta.Reason)
	}
	if _, ok := members["profiles/goroutine.txt"]; !ok {
		t.Fatal("postmortem lacks the goroutine dump")
	}
}

func TestRecoverHandlerPassesCleanRequests(t *testing.T) {
	called := false
	h := obs.RecoverHandler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}), func(any) { called = true })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/", nil))
	if rr.Code != http.StatusTeapot || called {
		t.Fatalf("clean request mangled: code %d, onPanic called %v", rr.Code, called)
	}
}

func TestHealthComponentMatrix(t *testing.T) {
	s, ts := newTestServer(t, Config{
		QueueDepth: 10, MaxChunk: 10, AuditFloor: 0.8,
		Streams: []StreamSpec{testSpec("a"), testSpec("b")},
	})
	wa, _ := s.stream("a")
	wb, _ := s.stream("b")

	check := func(label string, wantScore float64, want map[string]float64) {
		t.Helper()
		score, c := s.healthComponents()
		if score != wantScore {
			t.Fatalf("%s: score %g, want %g (components %v)", label, score, wantScore, c)
		}
		for k, v := range want {
			if c[k] != v {
				t.Fatalf("%s: component %s = %g, want %g", label, k, c[k], v)
			}
		}
	}

	check("baseline", 1, map[string]float64{
		"wal": 1, "queue_headroom": 1, "audit_floor": 1, "replay_debt": 1, "degraded_streams": 1,
	})

	wb.degraded.Store(true)
	check("one of two degraded", 0.5, map[string]float64{"degraded_streams": 0.5})
	wb.degraded.Store(false)

	wa.auditRep.Store(&audit.Report{QualityRatio: 0.4})
	check("quality at half the floor", 0.5, map[string]float64{"audit_floor": 0.5})
	wa.auditRep.Store(&audit.Report{QualityRatio: 0.9})
	check("quality above floor caps at 1", 1, map[string]float64{"audit_floor": 1})

	// 50 acked-but-unsettled records against a 10×10 debt cap.
	wa.m.ingested.Add(wa.m.processed.Load() + 50 - wa.m.ingested.Load())
	check("replay debt half spent", 0.5, map[string]float64{"replay_debt": 0.5})

	// /healthz carries the same numbers machine-readably.
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var hz struct {
		Status     string             `json:"status"`
		Score      float64            `json:"score"`
		Components map[string]float64 `json:"components"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Score != 0.5 || hz.Components["replay_debt"] != 0.5 {
		t.Fatalf("healthz = %+v", hz)
	}
}

func TestWatchdogFlagsStallOnce(t *testing.T) {
	flight := obs.NewFlight(64, nil)
	s, ts := newTestServer(t, Config{
		Flight:             flight,
		StallCheckInterval: -1, // drive checkStalls by hand with synthetic time
		StallMin:           time.Second,
		Streams:            []StreamSpec{testSpec("a")},
	})
	wk, _ := s.stream("a")

	// Wedge the worker inside an admin operation, then queue real work
	// behind it — the exact shape the watchdog exists to catch.
	release := make(chan struct{})
	blocked := make(chan struct{})
	go wk.do(context.Background(), func() { close(blocked); <-release })
	<-blocked
	code, _ := post(t, ts.URL+"/v1/ingest?stream=a", "application/x-ndjson",
		ndjsonBody(t, []tdnstream.Interaction{{Src: 1, Dst: 2, T: 1}}))
	if code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	if wk.queueDepth() == 0 {
		t.Fatal("chunk should be queued behind the wedged worker")
	}

	// Under the threshold: quiet.
	s.checkStalls(time.Unix(0, wk.lastBatchNs.Load()).Add(500 * time.Millisecond))
	if n := len(flight.Events()); n != 0 {
		t.Fatalf("stall flagged below threshold: %d events", n)
	}
	// Over it: exactly one event, latched across repeat sweeps.
	late := time.Unix(0, wk.lastBatchNs.Load()).Add(10 * time.Second)
	s.checkStalls(late)
	s.checkStalls(late.Add(time.Second))
	evs := flight.Events()
	if len(evs) != 1 || evs[0].Kind != obs.EventWorkerStall || evs[0].Stream != "a" {
		t.Fatalf("want exactly one worker_stall for a, got %+v", evs)
	}
	if evs[0].Attrs["queue_depth"] != "1" {
		t.Fatalf("stall attrs: %v", evs[0].Attrs)
	}

	// Finishing a batch clears the latch; a healthy sweep stays quiet
	// and a new wedge re-arms.
	close(release)
	waitProcessed(t, wk, 1)
	deadline := time.Now().Add(5 * time.Second)
	for wk.stalled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("stall latch never cleared after the batch finished")
		}
		time.Sleep(time.Millisecond)
	}
	s.checkStalls(time.Unix(0, wk.lastBatchNs.Load()).Add(100 * time.Millisecond))
	if n := len(flight.Events()); n != 1 {
		t.Fatalf("healthy sweep recorded a stall: %d events", n)
	}
}
