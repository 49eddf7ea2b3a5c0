package server

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"tdnstream"
	"tdnstream/internal/notify"
	"tdnstream/internal/stream"
)

func testWorker(t *testing.T, spec StreamSpec, cfg Config) *worker {
	t.Helper()
	w, err := newWorker(spec, cfg.withDefaults(), notify.NewHub(notify.Config{}), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.stop)
	return w
}

func TestRecordReaderForContentTypes(t *testing.T) {
	for ct, wantErr := range map[string]bool{
		"":                                false,
		"application/x-ndjson":            false,
		"application/jsonl":               false,
		"text/csv":                        false,
		"text/csv; charset=utf-8":         false,
		"application/csv":                 false,
		"TEXT/CSV":                        false,
		"application/protobuf":            true,
		"multipart/form-data; boundary=x": true,
	} {
		_, err := recordReaderFor(ct, strings.NewReader(""))
		if (err != nil) != wantErr {
			t.Errorf("Content-Type %q: err = %v, wantErr = %v", ct, err, wantErr)
		}
	}
}

func TestDecodeContentEncoding(t *testing.T) {
	var z strings.Builder
	zw := gzip.NewWriter(&z)
	zw.Write([]byte("payload"))
	zw.Close()

	for _, tc := range []struct {
		encoding string
		body     string
		want     string // "" means an error is expected
		unknown  bool   // expected error is errUnknownEncoding
	}{
		{encoding: "", body: "payload", want: "payload"},
		{encoding: "identity", body: "payload", want: "payload"},
		{encoding: "gzip", body: z.String(), want: "payload"},
		{encoding: "x-gzip", body: z.String(), want: "payload"},
		{encoding: " GZIP ", body: z.String(), want: "payload"},
		{encoding: "gzip", body: "corrupt"},
		{encoding: "br", body: "anything", unknown: true},
		{encoding: "zstd", body: "anything", unknown: true},
	} {
		r, _, err := decodeContentEncoding(tc.encoding, strings.NewReader(tc.body), 1<<20)
		if tc.want == "" {
			if err == nil {
				t.Errorf("encoding %q: no error", tc.encoding)
			} else if errors.Is(err, errUnknownEncoding) != tc.unknown {
				t.Errorf("encoding %q: err %v, unknown-encoding = %v, want %v",
					tc.encoding, err, !tc.unknown, tc.unknown)
			}
			continue
		}
		if err != nil {
			t.Errorf("encoding %q: %v", tc.encoding, err)
			continue
		}
		out, err := io.ReadAll(r)
		if err != nil || string(out) != tc.want {
			t.Errorf("encoding %q: read %q (%v), want %q", tc.encoding, out, err, tc.want)
		}
	}
}

// TestIngestChunkingKeepsTimestampGroupsWhole: an event-time chunk never
// ends mid-timestamp, even when the group is larger than MaxChunk —
// otherwise the group's tail would be dropped as stale by the worker.
func TestIngestChunkingKeepsTimestampGroupsWhole(t *testing.T) {
	w := testWorker(t, testSpec("chunks"), Config{QueueDepth: 64})

	// 10 records at t=1, then 10 at t=2, with MaxChunk 4.
	var b strings.Builder
	for i := 0; i < 10; i++ {
		b.WriteString(`{"src":"a` + string(rune('a'+i)) + `","dst":"hub","t":1}` + "\n")
	}
	for i := 0; i < 10; i++ {
		b.WriteString(`{"src":"b` + string(rune('a'+i)) + `","dst":"hub","t":2}` + "\n")
	}
	accepted, err := ingestBody(w, stream.NewNDJSONReader(strings.NewReader(b.String())), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 20 {
		t.Fatalf("accepted %d, want 20", accepted)
	}
	waitProcessed(t, w, 20)
	if w.m.staleDrop.Load() != 0 {
		t.Fatalf("stale drops on intact groups: %d", w.m.staleDrop.Load())
	}
	if w.m.processed.Load() != 20 {
		t.Fatalf("processed %d, want 20", w.m.processed.Load())
	}
	if got := w.m.steps.Load(); got != 2 {
		t.Fatalf("steps %d, want 2 (one per timestamp)", got)
	}
}

// Arrival-mode chunks split exactly at MaxChunk — timestamps don't matter.
func TestIngestChunkingArrival(t *testing.T) {
	spec := testSpec("arrchunks")
	spec.TimeMode = TimeArrival
	spec.Tracker = tdnstream.TrackerSpec{Algo: "sieveadn", K: 2, Eps: 0.5}
	w := testWorker(t, spec, Config{QueueDepth: 64})

	var b strings.Builder
	for i := 0; i < 10; i++ {
		b.WriteString(`{"src":"x` + string(rune('a'+i)) + `","dst":"hub"}` + "\n")
	}
	accepted, err := ingestBody(w, stream.NewNDJSONReader(strings.NewReader(b.String())), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 10 {
		t.Fatalf("accepted %d, want 10", accepted)
	}
	waitProcessed(t, w, 10)
	if got := w.m.steps.Load(); got != 3 { // chunks of 4+4+2
		t.Fatalf("steps %d, want 3", got)
	}
}

func TestIngestBodyDecodeErrorKeepsPrefix(t *testing.T) {
	w := testWorker(t, testSpec("badbody"), Config{QueueDepth: 64})
	body := "{\"src\":\"a\",\"dst\":\"b\",\"t\":1}\nnot json\n"
	accepted, err := ingestBody(w, stream.NewNDJSONReader(strings.NewReader(body)), 4, nil)
	if err == nil {
		t.Fatal("want decode error")
	}
	if accepted != 1 {
		t.Fatalf("accepted %d, want the valid prefix of 1", accepted)
	}
	// The malformed counter is the handler's: only there can a decode
	// failure be told apart from a body-size-limit truncation (413).
	if w.m.malformed.Load() != 0 {
		t.Fatalf("malformed = %d, want 0 (counted by the handler, not ingestBody)", w.m.malformed.Load())
	}
}

// TestIngestAllocBytesPerRequest pins what a small ingest request costs
// the heap: a 100-record body must not pay up front for a MaxChunk-row
// chunk buffer or a 64 KiB scanner buffer. Each request goes through
// Handler(), so the figure covers routing, decoding, interning, the
// queue and the tracker step its records trigger.
func TestIngestAllocBytesPerRequest(t *testing.T) {
	spec := testSpec("alloc")
	spec.TimeMode = TimeArrival
	spec.Tracker = tdnstream.TrackerSpec{Algo: "sieveadn", K: 5, Eps: 0.2}
	s, err := New(Config{Streams: []StreamSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	w, _ := s.stream("alloc")

	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\"}\n", i%20, (i*7+1)%20)
	}
	body := b.String()
	sent := uint64(0)
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest?stream=alloc", strings.NewReader(body))
			req.Header.Set("Content-Type", ctNDJSON)
			s.Handler().ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				t.Fatalf("ingest: %d: %s", rr.Code, rr.Body)
			}
			sent += 100
		}
		waitProcessed(t, w, sent)
	}

	ingest(50) // labels interned, buffers and pools warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const requests = 300
	ingest(requests)
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d bytes allocated per 100-record request", perReq)
	if perReq >= 128<<10 {
		t.Errorf("a 100-record request allocates %d bytes, want < %d", perReq, 128<<10)
	}
}
