package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tdnstream"
)

// testSpec is the standard stream under test: HISTAPPROX over a constant
// lifetime so every run (and every checkpoint restore) is deterministic.
func testSpec(name string) StreamSpec {
	return StreamSpec{
		Name:     name,
		Tracker:  tdnstream.TrackerSpec{Algo: "histapprox", K: 5, Eps: 0.2, L: 100},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 50},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testContext returns a context canceled when the test ends.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// ndjsonBody renders interactions as an NDJSON ingest body with string
// labels n<i>.
func ndjsonBody(t *testing.T, in []tdnstream.Interaction) string {
	t.Helper()
	var b strings.Builder
	for _, x := range in {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\",\"t\":%d}\n", x.Src, x.Dst, x.T)
	}
	return b.String()
}

func post(t *testing.T, url, contentType, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// waitProcessed blocks until the stream has fed n records to the tracker.
func waitProcessed(t *testing.T, w *worker, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	// The counter moves just before the chunk's snapshot publish: also
	// wait for the published snapshot to catch up with it.
	for w.m.processed.Load()+w.m.staleDrop.Load() < n || w.snapshot().Processed != w.m.processed.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: processed %d + stale %d of %d",
				w.m.processed.Load(), w.m.staleDrop.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func topK(t *testing.T, base, stream string) topKResponse {
	t.Helper()
	code, body := get(t, base+"/v1/topk?stream="+stream)
	if code != http.StatusOK {
		t.Fatalf("topk: status %d: %s", code, body)
	}
	var resp topKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEndToEnd is the issue's acceptance flow: ingest NDJSON over HTTP,
// query top-k, checkpoint, restore into a fresh server, and require the
// restored server to answer with the identical top-k. The HTTP answer is
// also pinned against a library Pipeline fed the same interactions.
func TestEndToEnd(t *testing.T) {
	in, err := tdnstream.Dataset("brightkite", 600)
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("e2e")}, MaxChunk: 100})
	code, body := post(t, ts.URL+"/v1/ingest?stream=e2e", ctNDJSON, ndjsonBody(t, in))
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	w, _ := s.stream("e2e")
	waitProcessed(t, w, uint64(len(in)))

	got := topK(t, ts.URL, "e2e")
	if got.Steps == 0 || got.Value == 0 || len(got.Seeds) == 0 {
		t.Fatalf("empty topk after ingest: %+v", got)
	}

	// Reference: the library pipeline on the same stream (labels n<i>
	// intern in first-appearance order, exactly like the server decodes).
	spec := testSpec("e2e")
	tracker, err := spec.Tracker.New()
	if err != nil {
		t.Fatal(err)
	}
	assign, err := spec.Lifetime.New()
	if err != nil {
		t.Fatal(err)
	}
	dict := tdnstream.NewDict()
	ref := make([]tdnstream.Interaction, len(in))
	for i, x := range in {
		ref[i] = tdnstream.Interaction{
			Src: dict.ID(fmt.Sprintf("n%d", x.Src)),
			Dst: dict.ID(fmt.Sprintf("n%d", x.Dst)),
			T:   x.T,
		}
	}
	pipe := tdnstream.NewPipeline(tracker, assign)
	if err := pipe.Run(ref, nil); err != nil {
		t.Fatal(err)
	}
	want := pipe.Solution()
	gotIDs := make([]tdnstream.NodeID, len(got.Seeds))
	for i, s := range got.Seeds {
		gotIDs[i] = s.ID
	}
	if got.Value != want.Value || !reflect.DeepEqual(gotIDs, want.Seeds) {
		t.Fatalf("server answer diverges from library: got %d %v, want %d %v",
			got.Value, gotIDs, want.Value, want.Seeds)
	}

	// Checkpoint over HTTP…
	code, ckpt := post(t, ts.URL+"/v1/admin/checkpoint?stream=e2e", "", "")
	if code != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", code, ckpt)
	}

	// …restore into a fresh server that has never seen the stream…
	_, ts2 := newTestServer(t, Config{})
	resp2, err := http.Post(ts2.URL+"/v1/admin/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp2.StatusCode)
	}

	// …and require the identical top-k, labels included.
	got2 := topK(t, ts2.URL, "e2e")
	if got2.Value != got.Value || !reflect.DeepEqual(got2.Seeds, got.Seeds) {
		t.Fatalf("restored topk diverges: got %+v, want %+v", got2, got)
	}
	if got2.T != got.T {
		t.Fatalf("restored clock diverges: got t=%d, want t=%d", got2.T, got.T)
	}
}

// TestRestoreInPlace overwrites a live stream with a checkpoint and keeps
// ingesting: the stream clock must resume past the checkpoint time.
func TestRestoreInPlace(t *testing.T) {
	in, err := tdnstream.Dataset("gowalla", 300)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("ip")}})
	post(t, ts.URL+"/v1/ingest?stream=ip", ctNDJSON, ndjsonBody(t, in[:200]))
	w, _ := s.stream("ip")
	waitProcessed(t, w, 200)
	_, ckpt := post(t, ts.URL+"/v1/admin/checkpoint?stream=ip", "", "")
	before := topK(t, ts.URL, "ip")

	// Feed more, then roll back via restore.
	post(t, ts.URL+"/v1/ingest?stream=ip", ctNDJSON, ndjsonBody(t, in[200:]))
	waitProcessed(t, w, 300)
	resp, err := http.Post(ts.URL+"/v1/admin/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}
	after := topK(t, ts.URL, "ip")
	if after.Value != before.Value || !reflect.DeepEqual(after.Seeds, before.Seeds) {
		t.Fatalf("in-place restore diverges: got %+v, want %+v", after, before)
	}

	// The tail of the stream still ingests after the rollback.
	code, body := post(t, ts.URL+"/v1/ingest?stream=ip", ctNDJSON, ndjsonBody(t, in[200:]))
	if code != http.StatusOK {
		t.Fatalf("post-restore ingest: status %d: %s", code, body)
	}
}

// TestRestoreAdoptsCheckpointSpec: restoring into an existing stream of
// the same name replaces its spec (algorithm, lifetime, time mode)
// wholesale, exactly as if the stream had been created from the
// checkpoint — not just the tracker state.
func TestRestoreAdoptsCheckpointSpec(t *testing.T) {
	// Checkpoint an event-time histapprox stream…
	src, tsSrc := newTestServer(t, Config{Streams: []StreamSpec{testSpec("spec")}})
	in, _ := tdnstream.Dataset("brightkite", 100)
	post(t, tsSrc.URL+"/v1/ingest?stream=spec", ctNDJSON, ndjsonBody(t, in))
	wSrc, _ := src.stream("spec")
	waitProcessed(t, wSrc, 100)
	_, ckpt := post(t, tsSrc.URL+"/v1/admin/checkpoint?stream=spec", "", "")

	// …into a server hosting an arrival-time sieveadn stream of the same name.
	dst, tsDst := newTestServer(t, Config{Streams: []StreamSpec{{
		Name:     "spec",
		Tracker:  tdnstream.TrackerSpec{Algo: "sieveadn", K: 2, Eps: 0.5},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 10},
		TimeMode: TimeArrival,
	}}})
	resp, err := http.Post(tsDst.URL+"/v1/admin/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}
	w, _ := dst.stream("spec")
	st := w.state.Load()
	if st.timeMode != TimeEvent || st.spec.Tracker.Algo != "histapprox" {
		t.Fatalf("restored stream kept old spec: timeMode=%q algo=%q", st.timeMode, st.spec.Tracker.Algo)
	}
	if got := topK(t, tsDst.URL, "spec"); got.Algo != "HistApprox" {
		t.Fatalf("restored tracker is %q, want HistApprox", got.Algo)
	}
	// A fresh checkpoint of the restored stream re-embeds the adopted spec.
	_, ckpt2 := post(t, tsDst.URL+"/v1/admin/checkpoint?stream=spec", "", "")
	env, err := decodeCheckpoint(ckpt2)
	if err != nil {
		t.Fatal(err)
	}
	if env.Spec.Tracker.Algo != "histapprox" || env.Spec.timeMode() != TimeEvent {
		t.Fatalf("re-checkpointed spec is stale: %+v", env.Spec)
	}
}

// TestCheckpointDrainsQueue: records already acknowledged with 200 OK
// must be in the checkpoint even when they are still queued (not yet
// processed) at the moment the checkpoint runs — the shutdown path
// checkpoints before Close, so anything the drain skipped would be lost.
func TestCheckpointDrainsQueue(t *testing.T) {
	s, _ := newTestServer(t, Config{Streams: []StreamSpec{testSpec("ckdrain")}})
	w, _ := s.stream("ckdrain")

	// Occupy the worker with an admin fn that checkpoints only after the
	// test has queued a chunk behind it: the chunk is provably unprocessed
	// when checkpoint() starts.
	started := make(chan struct{})
	queued := make(chan struct{})
	var data []byte
	var cerr error
	done := make(chan error, 1)
	go func() {
		done <- w.do(testContext(t), func() {
			close(started)
			<-queued
			data, _, cerr = w.checkpoint()
		})
	}()
	<-started
	rows := []tdnstream.Interaction{
		{Src: w.labels.intern("a"), Dst: w.labels.intern("b"), T: 7},
		{Src: w.labels.intern("b"), Dst: w.labels.intern("c"), T: 9},
	}
	if err := w.enqueue(chunk{rows: rows}); err != nil {
		t.Fatal(err)
	}
	close(queued)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cerr != nil {
		t.Fatal(cerr)
	}
	if got := w.m.processed.Load(); got != uint64(len(rows)) {
		t.Fatalf("checkpoint drained %d records, want %d", got, len(rows))
	}
	env, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	trk, err := tdnstream.LoadTracker(bytes.NewReader(env.Tracker))
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := tdnstream.TrackerNow(trk); now != 9 {
		t.Fatalf("checkpointed tracker time %d, want 9 (queued records missing)", now)
	}
}

// TestRestoreRejectsStaleIngest: a chunk whose labels were interned
// before an in-place restore carries NodeIDs from the replaced
// dictionary; enqueue must refuse it rather than feed it to the restored
// tracker.
func TestRestoreRejectsStaleIngest(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("ep")}})
	w, _ := s.stream("ep")
	post(t, ts.URL+"/v1/ingest?stream=ep", ctNDJSON, "{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n")
	waitProcessed(t, w, 1)
	_, ckpt := post(t, ts.URL+"/v1/admin/checkpoint?stream=ep", "", "")

	// An ingest that began before the restore: epoch captured, labels
	// interned under the pre-restore dictionary.
	epoch := w.ingestEpoch()
	rows := []tdnstream.Interaction{{Src: w.labels.intern("x"), Dst: w.labels.intern("y"), T: 2}}

	resp, err := http.Post(ts.URL+"/v1/admin/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}

	if err := w.enqueue(chunk{rows: rows, epoch: epoch}); !errors.Is(err, errStaleIngest) {
		t.Fatalf("stale-epoch enqueue: %v, want errStaleIngest", err)
	}
	if got := w.m.restoreReject.Load(); got != uint64(len(rows)) {
		t.Fatalf("restore_rejected = %d, want %d", got, len(rows))
	}

	// A fresh ingest (new epoch, new dictionary) is accepted.
	code, body := post(t, ts.URL+"/v1/ingest?stream=ep", ctNDJSON, "{\"src\":\"c\",\"dst\":\"d\",\"t\":3}\n")
	if code != http.StatusOK {
		t.Fatalf("post-restore ingest: %d: %s", code, body)
	}
}

// TestBackpressure fills the queue behind a wedged worker and requires
// 429 + Retry-After instead of blocking.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Streams:    []StreamSpec{testSpec("bp")},
		QueueDepth: 2,
		MaxChunk:   10,
		RetryAfter: 3 * time.Second,
	})
	w, _ := s.stream("bp")

	// Wedge the worker between chunks.
	release := make(chan struct{})
	wedged := make(chan struct{})
	go w.do(testContext(t), func() { close(wedged); <-release })
	<-wedged
	defer close(release)

	// 2 chunks fit in the queue; the rest must bounce.
	in, _ := tdnstream.Dataset("brightkite", 100)
	code, body := post(t, ts.URL+"/v1/ingest?stream=bp", ctNDJSON, ndjsonBody(t, in))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2*10 {
		t.Fatalf("accepted %d records, want 20 (2 chunks of 10)", resp.Accepted)
	}
	if w.m.rejected.Load() == 0 {
		t.Fatal("rejected counter not bumped")
	}

	// Retry-After is surfaced, rounded up to whole seconds.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest?stream=bp", strings.NewReader(ndjsonBody(t, in)))
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if got := hr.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
}

// TestArrivalMode ingests timestamp-free NDJSON: each chunk becomes one
// server-clocked step.
func TestArrivalMode(t *testing.T) {
	spec := StreamSpec{
		Name:     "arr",
		Tracker:  tdnstream.TrackerSpec{Algo: "sieveadn", K: 3, Eps: 0.2},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 1000},
		TimeMode: TimeArrival,
	}
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{spec}, MaxChunk: 4})
	body := `{"src":"a","dst":"b"}
{"src":"a","dst":"c"}
{"src":"b","dst":"c"}
{"src":"c","dst":"d"}
{"src":"a","dst":"d"}
`
	code, out := post(t, ts.URL+"/v1/ingest?stream=arr", ctNDJSON, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	w, _ := s.stream("arr")
	waitProcessed(t, w, 5)
	got := topK(t, ts.URL, "arr")
	if got.T != 2 { // 5 records, MaxChunk 4 → 2 chunks → 2 steps
		t.Fatalf("t = %d, want 2", got.T)
	}
	if got.Value == 0 || got.Seeds[0].Label != "a" {
		t.Fatalf("unexpected topk: %+v", got)
	}
}

// TestStreamLifecycleAndErrors covers the management endpoints and the
// API's failure modes.
func TestStreamLifecycleAndErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Unknown stream and missing parameter.
	if code, _ := get(t, ts.URL+"/v1/topk?stream=nope"); code != http.StatusNotFound {
		t.Fatalf("topk on unknown stream: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/topk"); code != http.StatusBadRequest {
		t.Fatalf("topk without stream: %d", code)
	}

	// Create over HTTP.
	spec, _ := json.Marshal(testSpec("dyn"))
	code, body := post(t, ts.URL+"/v1/streams", "application/json", string(spec))
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	if code, _ = post(t, ts.URL+"/v1/streams", "application/json", string(spec)); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}

	// Bad specs are rejected as 400 (only duplicate names are conflicts).
	bad, _ := json.Marshal(StreamSpec{Name: "bad", Tracker: tdnstream.TrackerSpec{Algo: "nope", K: 1}})
	if code, _ = post(t, ts.URL+"/v1/streams", "application/json", string(bad)); code != http.StatusBadRequest {
		t.Fatalf("bad algo create: %d", code)
	}

	// Stream names reach WAL directory paths: traversal and separator
	// characters must be rejected outright.
	for _, name := range []string{"../../etc/evil", "a/b", "..", ".", "a b", strings.Repeat("x", 129)} {
		evil, _ := json.Marshal(testSpec(name))
		if code, _ = post(t, ts.URL+"/v1/streams", "application/json", string(evil)); code != http.StatusBadRequest {
			t.Fatalf("create with name %q: %d, want 400", name, code)
		}
	}

	// Malformed ingest → 400 with malformed counter.
	code, body = post(t, ts.URL+"/v1/ingest?stream=dyn", ctNDJSON, "{\"src\":\"a\",\"dst\":\"a\"}\n")
	if code != http.StatusBadRequest {
		t.Fatalf("self-loop ingest: %d: %s", code, body)
	}
	if wk, ok := s.stream("dyn"); !ok || wk.m.malformed.Load() != 1 {
		t.Fatalf("malformed counter not bumped on 400")
	}
	if code, _ = post(t, ts.URL+"/v1/ingest?stream=dyn", "application/msgpack", "x"); code != http.StatusUnsupportedMediaType {
		t.Fatalf("bad content type: %d", code)
	}

	// CSV ingest works on the same endpoint.
	if code, body = post(t, ts.URL+"/v1/ingest?stream=dyn", ctCSV, "a,b,1\nb,c,2\n"); code != http.StatusOK {
		t.Fatalf("csv ingest: %d: %s", code, body)
	}

	// List, then delete, then 404.
	code, body = get(t, ts.URL+"/v1/streams")
	if code != http.StatusOK || !strings.Contains(string(body), "\"dyn\"") {
		t.Fatalf("list: %d: %s", code, body)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/dyn", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if code, _ = get(t, ts.URL+"/v1/topk?stream=dyn"); code != http.StatusNotFound {
		t.Fatalf("topk after delete: %d", code)
	}
}

// TestIngestBodyTooLarge: a body over MaxBodyBytes is well-formed input
// hitting a server limit — 413, and not counted as malformed.
func TestIngestBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("big")}, MaxBodyBytes: 64})
	body := strings.Repeat("{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n", 10)
	code, out := post(t, ts.URL+"/v1/ingest?stream=big", ctNDJSON, body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: %d: %s, want 413", code, out)
	}
	w, _ := s.stream("big")
	if got := w.m.malformed.Load(); got != 0 {
		t.Fatalf("malformed = %d, want 0 (limit errors are not decode errors)", got)
	}
}

// TestEventModeDropsStale requires monotone TDN time: replayed records are
// counted, not fed.
func TestEventModeDropsStale(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("st")}})
	body := "{\"src\":\"a\",\"dst\":\"b\",\"t\":5}\n"
	post(t, ts.URL+"/v1/ingest?stream=st", ctNDJSON, body)
	post(t, ts.URL+"/v1/ingest?stream=st", ctNDJSON, body) // replay
	w, _ := s.stream("st")
	waitProcessed(t, w, 2)
	if w.m.staleDrop.Load() != 1 {
		t.Fatalf("stale_dropped = %d, want 1", w.m.staleDrop.Load())
	}
	if w.m.processed.Load() != 1 {
		t.Fatalf("processed = %d, want 1", w.m.processed.Load())
	}
}

// TestGracefulDrain closes the server with a loaded queue and requires
// every queued record to be processed before Close returns.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Streams: []StreamSpec{testSpec("drain")}, MaxChunk: 50})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := tdnstream.Dataset("brightkite", 500)
	w, _ := s.stream("drain")
	rows := make([]tdnstream.Interaction, len(in))
	dict := tdnstream.NewDict()
	for i, x := range in {
		rows[i] = tdnstream.Interaction{
			Src: dict.ID(fmt.Sprintf("n%d", x.Src)),
			Dst: dict.ID(fmt.Sprintf("n%d", x.Dst)),
			T:   x.T,
		}
	}
	for i := 0; i < len(rows); i += 50 {
		end := min(i+50, len(rows))
		if err := w.enqueue(chunk{rows: rows[i:end]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.m.processed.Load(); got != uint64(len(rows)) {
		t.Fatalf("drained %d records, want %d", got, len(rows))
	}
	if w.snapshot().Solution.Value == 0 {
		t.Fatal("final snapshot not published")
	}
	// Ingest after close fails cleanly.
	if err := w.enqueue(chunk{rows: rows[:1]}); err != errStreamClosed {
		t.Fatalf("enqueue after close: %v, want errStreamClosed", err)
	}
}

// TestConcurrentIngestAndQuery is the -race test: parallel producers
// hammer an arrival-mode stream while parallel readers hit the topk,
// metrics, healthz and explain paths.
func TestConcurrentIngestAndQuery(t *testing.T) {
	spec := StreamSpec{
		Name:     "conc",
		Tracker:  tdnstream.TrackerSpec{Algo: "sieveadn", K: 5, Eps: 0.3},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 500},
		TimeMode: TimeArrival,
	}
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{spec}, QueueDepth: 64, MaxChunk: 256})

	in, err := tdnstream.Dataset("twitter-higgs", 2000)
	if err != nil {
		t.Fatal(err)
	}
	const producers, readers = 4, 4
	var prodWG, readWG sync.WaitGroup
	var accepted, rejected atomic64
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			part := in[p*len(in)/producers : (p+1)*len(in)/producers]
			for i := 0; i < len(part); i += 100 {
				end := min(i+100, len(part))
				var b strings.Builder
				for _, x := range part[i:end] {
					fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\"}\n", x.Src, x.Dst)
				}
				resp, err := http.Post(ts.URL+"/v1/ingest?stream=conc", ctNDJSON, strings.NewReader(b.String()))
				if err != nil {
					t.Error(err)
					return
				}
				var ir ingestResponse
				json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.add(uint64(ir.Accepted))
				case http.StatusTooManyRequests:
					accepted.add(uint64(ir.Accepted))
					rejected.add(uint64(end - i - ir.Accepted))
				default:
					t.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(p)
	}
	stopRead := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			paths := []string{"/v1/topk?stream=conc", "/metrics", "/healthz", "/v1/streams", "/v1/explain?stream=conc"}
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
					t.Errorf("read status %d on %s", resp.StatusCode, paths[i%len(paths)])
					return
				}
			}
		}()
	}

	// Wait for producers, then stop readers.
	prodWG.Wait()
	close(stopRead)
	readWG.Wait()

	w, _ := s.stream("conc")
	waitProcessed(t, w, accepted.load())
	if got := w.m.ingested.Load(); got != accepted.load() {
		t.Fatalf("ingested %d, want %d accepted", got, accepted.load())
	}
	if got := w.m.processed.Load(); got != accepted.load() {
		t.Fatalf("processed %d, want %d", got, accepted.load())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if w.snapshot().Processed != accepted.load() {
		t.Fatalf("final snapshot processed %d, want %d", w.snapshot().Processed, accepted.load())
	}
	t.Logf("accepted=%d rejected=%d steps=%d", accepted.load(), rejected.load(), w.m.steps.Load())
}

// atomic64 is a tiny test helper counter.
type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) add(n uint64) { a.mu.Lock(); a.n += n; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// shardedSpec is the standard sharded stream under test: 4 HISTAPPROX
// partitions over a constant lifetime, fully deterministic.
func shardedSpec(name string) StreamSpec {
	spec := testSpec(name)
	spec.Tracker.Shards = 4
	return spec
}

// TestEndToEndSharded is the sharded acceptance flow: ingest over HTTP
// into a 4-shard stream, pin the answer against a library shard.Engine
// pipeline and against a second server fed the same body (determinism),
// then checkpoint and restore into a fresh server and require the
// identical global top-k — the per-shard states travel in the envelope.
func TestEndToEndSharded(t *testing.T) {
	in, err := tdnstream.Dataset("twitter-higgs", 800)
	if err != nil {
		t.Fatal(err)
	}
	body := ndjsonBody(t, in)

	s, ts := newTestServer(t, Config{Streams: []StreamSpec{shardedSpec("sh")}, MaxChunk: 100})
	if code, out := post(t, ts.URL+"/v1/ingest?stream=sh", ctNDJSON, body); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, out)
	}
	w, _ := s.stream("sh")
	waitProcessed(t, w, uint64(len(in)))
	got := topK(t, ts.URL, "sh")
	if got.Value == 0 || len(got.Seeds) == 0 {
		t.Fatalf("empty sharded topk: %+v", got)
	}
	if !strings.Contains(got.Algo, "Sharded[4]") {
		t.Fatalf("stream runs %q, want a Sharded[4] engine", got.Algo)
	}

	// Library reference: the same spec driven directly through a Pipeline.
	spec := shardedSpec("sh")
	tracker, err := spec.Tracker.New()
	if err != nil {
		t.Fatal(err)
	}
	assign, err := spec.Lifetime.New()
	if err != nil {
		t.Fatal(err)
	}
	dict := tdnstream.NewDict()
	ref := make([]tdnstream.Interaction, len(in))
	for i, x := range in {
		ref[i] = tdnstream.Interaction{
			Src: dict.ID(fmt.Sprintf("n%d", x.Src)),
			Dst: dict.ID(fmt.Sprintf("n%d", x.Dst)),
			T:   x.T,
		}
	}
	pipe := tdnstream.NewPipeline(tracker, assign)
	if err := pipe.Run(ref, nil); err != nil {
		t.Fatal(err)
	}
	want := pipe.Solution()
	gotIDs := make([]tdnstream.NodeID, len(got.Seeds))
	for i, s := range got.Seeds {
		gotIDs[i] = s.ID
	}
	if got.Value != want.Value || !reflect.DeepEqual(gotIDs, want.Seeds) {
		t.Fatalf("sharded server answer diverges from library: got %d %v, want %d %v",
			got.Value, gotIDs, want.Value, want.Seeds)
	}

	// Determinism over HTTP: a second server fed the same body answers
	// identically (same shard count + same data ⇒ same global top-k).
	s2, ts2 := newTestServer(t, Config{Streams: []StreamSpec{shardedSpec("sh")}, MaxChunk: 100})
	post(t, ts2.URL+"/v1/ingest?stream=sh", ctNDJSON, body)
	w2, _ := s2.stream("sh")
	waitProcessed(t, w2, uint64(len(in)))
	if got2 := topK(t, ts2.URL, "sh"); got2.Value != got.Value || !reflect.DeepEqual(got2.Seeds, got.Seeds) {
		t.Fatalf("sharded runs diverge across servers: %+v vs %+v", got2, got)
	}

	// Checkpoint → restore into a fresh server: exact same solution.
	code, ckpt := post(t, ts.URL+"/v1/admin/checkpoint?stream=sh", "", "")
	if code != http.StatusOK {
		t.Fatalf("sharded checkpoint: status %d: %s", code, ckpt)
	}
	env, err := decodeCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != checkpointVersion || env.Spec.Tracker.Shards != 4 {
		t.Fatalf("envelope version %d shards %d, want %d and 4", env.Version, env.Spec.Tracker.Shards, checkpointVersion)
	}
	_, ts3 := newTestServer(t, Config{})
	resp, err := http.Post(ts3.URL+"/v1/admin/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded restore: status %d", resp.StatusCode)
	}
	got3 := topK(t, ts3.URL, "sh")
	if got3.Value != got.Value || !reflect.DeepEqual(got3.Seeds, got.Seeds) || got3.T != got.T {
		t.Fatalf("restored sharded topk diverges: got %+v, want %+v", got3, got)
	}

	// The restored stream keeps ingesting (clock resumes past the
	// checkpoint) and stays deterministic.
	extra := "{\"src\":\"n1\",\"dst\":\"n0\",\"t\":999999}\n"
	if code, out := post(t, ts3.URL+"/v1/ingest?stream=sh", ctNDJSON, extra); code != http.StatusOK {
		t.Fatalf("post-restore sharded ingest: %d: %s", code, out)
	}
}

// TestIngestGzip: a gzip Content-Encoding body ingests identically to
// its identity twin; unknown encodings answer 415 and corrupt gzip 400.
func TestIngestGzip(t *testing.T) {
	in, err := tdnstream.Dataset("brightkite", 300)
	if err != nil {
		t.Fatal(err)
	}
	body := ndjsonBody(t, in)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("gz"), testSpec("plain")}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest?stream=gz", bytes.NewReader(zbuf.Bytes()))
	req.Header.Set("Content-Type", ctNDJSON)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip ingest: status %d: %s", resp.StatusCode, out)
	}
	var ir ingestResponse
	if err := json.Unmarshal(out, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != len(in) {
		t.Fatalf("gzip ingest accepted %d, want %d", ir.Accepted, len(in))
	}
	w, _ := s.stream("gz")
	waitProcessed(t, w, uint64(len(in)))

	post(t, ts.URL+"/v1/ingest?stream=plain", ctNDJSON, body)
	wp, _ := s.stream("plain")
	waitProcessed(t, wp, uint64(len(in)))
	a, b := topK(t, ts.URL, "gz"), topK(t, ts.URL, "plain")
	if a.Value != b.Value || !reflect.DeepEqual(a.Seeds, b.Seeds) {
		t.Fatalf("gzip and identity ingests diverge: %+v vs %+v", a, b)
	}

	// Gzip works for CSV bodies too.
	var csvz bytes.Buffer
	zw = gzip.NewWriter(&csvz)
	zw.Write([]byte("p,q,100000\nq,r,100001\n"))
	zw.Close()
	req, _ = http.NewRequest("POST", ts.URL+"/v1/ingest?stream=gz", bytes.NewReader(csvz.Bytes()))
	req.Header.Set("Content-Type", ctCSV)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip csv ingest: status %d", resp.StatusCode)
	}

	// Unknown encodings are 415, corrupt gzip is 400.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/ingest?stream=gz", strings.NewReader(body))
	req.Header.Set("Content-Encoding", "br")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("br encoding: status %d, want 415", resp.StatusCode)
	}
	req, _ = http.NewRequest("POST", ts.URL+"/v1/ingest?stream=gz", strings.NewReader("not gzip at all"))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt gzip: status %d, want 400", resp.StatusCode)
	}
}

// TestIngestGzipBomb: a small compressed body whose decompressed form
// exceeds MaxBodyBytes answers 413 instead of inflating into memory —
// even in event-time mode with a constant timestamp, where chunks never
// flush until the timestamp changes.
func TestIngestGzipBomb(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("bomb")}, MaxBodyBytes: 512})
	// ~50 KiB of records sharing one timestamp compresses well under the
	// 512-byte wire limit.
	var plain strings.Builder
	for i := 0; i < 1500; i++ {
		plain.WriteString("{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n")
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte(plain.String()))
	zw.Close()
	if z.Len() >= 512 {
		t.Fatalf("compressed body %d bytes does not fit the wire limit", z.Len())
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest?stream=bomb", bytes.NewReader(z.Bytes()))
	req.Header.Set("Content-Type", ctNDJSON)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb: status %d: %s, want 413", resp.StatusCode, out)
	}
	w, _ := s.stream("bomb")
	if got := w.m.malformed.Load(); got != 0 {
		t.Fatalf("malformed = %d, want 0 (limit hits are not decode errors)", got)
	}
}

// TestRestoreSupersedesQueuedChunks: chunks still queued when a restore
// lands are discarded without old-state pipeline work and counted as
// superseded, keeping processed+stale_dropped+failed+superseded ==
// ingested convergent.
func TestRestoreSupersedesQueuedChunks(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{testSpec("sup")}})
	w, _ := s.stream("sup")
	post(t, ts.URL+"/v1/ingest?stream=sup", ctNDJSON, "{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\n")
	waitProcessed(t, w, 1)
	_, ckpt := post(t, ts.URL+"/v1/admin/checkpoint?stream=sup", "", "")
	env, err := decodeCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	processedBefore := w.m.processed.Load()

	// Occupy the worker, queue chunks behind the wedge, then restore from
	// inside the wedge: the queued chunks are provably unprocessed when
	// restore runs.
	started := make(chan struct{})
	queued := make(chan struct{})
	var rerr error
	done := make(chan error, 1)
	go func() {
		done <- w.do(testContext(t), func() {
			close(started)
			<-queued
			rerr = w.restore(env)
		})
	}()
	<-started
	rows := []tdnstream.Interaction{
		{Src: w.labels.intern("c"), Dst: w.labels.intern("d"), T: 5},
		{Src: w.labels.intern("d"), Dst: w.labels.intern("e"), T: 6},
	}
	for _, r := range rows {
		if err := w.enqueue(chunk{rows: []tdnstream.Interaction{r}}); err != nil {
			t.Fatal(err)
		}
	}
	close(queued)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}

	if got := w.m.superseded.Load(); got != uint64(len(rows)) {
		t.Fatalf("superseded = %d, want %d", got, len(rows))
	}
	if got := w.m.processed.Load(); got != processedBefore {
		t.Fatalf("restore processed %d queued records under the replaced state", got-processedBefore)
	}
	sum := w.m.processed.Load() + w.m.staleDrop.Load() + w.m.failed.Load() + w.m.superseded.Load()
	if got := w.m.ingested.Load(); sum != got {
		t.Fatalf("accounting diverges: processed+stale+failed+superseded = %d, ingested = %d", sum, got)
	}
	// The surface agrees: /v1/streams reports the superseded count.
	if info := s.infoFor(w); info.Superseded != uint64(len(rows)) {
		t.Fatalf("stream info superseded = %d, want %d", info.Superseded, len(rows))
	}
}

// TestPeriodicCheckpointCrashRestore: with background checkpointing, a
// hard crash after the interval (no graceful shutdown checkpoint) loses
// at most one interval — the last periodic snapshot restores the recent
// state. The stream logs no chunks (wal=off), so its log holds nothing
// but those snapshots.
func TestPeriodicCheckpointCrashRestore(t *testing.T) {
	in, err := tdnstream.Dataset("brightkite", 400)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	spec := testSpec("pc")
	spec.WAL = WALOff
	s, ts := newTestServer(t, Config{WALDir: walDir, Streams: []StreamSpec{spec}})
	w, _ := s.stream("pc")
	post(t, ts.URL+"/v1/ingest?stream=pc", ctNDJSON, ndjsonBody(t, in))
	waitProcessed(t, w, uint64(len(in)))
	want := topK(t, ts.URL, "pc")

	ctx, cancel := context.WithCancel(testContext(t))
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.PeriodicCheckpoints(ctx, 5*time.Millisecond, func(err error) { t.Error(err) })
	}()

	// Wait for a background snapshot that includes the full ingest.
	deadline := time.Now().Add(10 * time.Second)
	for captured := false; !captured; {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint captured the ingested state")
		}
		env, _, err := w.newestSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if env != nil {
			trk, err := tdnstream.LoadTracker(bytes.NewReader(env.Tracker))
			if err != nil {
				t.Fatal(err)
			}
			now, _ := tdnstream.TrackerNow(trk)
			captured = now == want.T
		}
		if !captured {
			time.Sleep(time.Millisecond)
		}
	}
	cancel()   // stop the background loop…
	<-loopDone // …and join it, so a late onErr can never outlive the test

	// "Crash": abandon the first server without any graceful-shutdown
	// checkpoint and boot a brand-new one over its directory.
	ts.Close()
	s.Close()
	_, ts2 := newTestServer(t, Config{WALDir: walDir})
	got := topK(t, ts2.URL, "pc")
	if got.Value != want.Value || !reflect.DeepEqual(got.Seeds, want.Seeds) || got.T != want.T {
		t.Fatalf("crash restore diverges: got %+v, want %+v", got, want)
	}
}
