package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tdnstream"
	"tdnstream/internal/notify"
)

// benchPayload renders n interactions of a synthetic stream as one NDJSON
// ingest body (timestamp-free: the arrival-mode server assigns steps).
func benchPayload(b *testing.B, dataset string, n int64) string {
	b.Helper()
	in, err := tdnstream.Dataset(dataset, n)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.Grow(int(n) * 24)
	for _, x := range in {
		fmt.Fprintf(&sb, "{\"src\":\"n%d\",\"dst\":\"n%d\"}\n", x.Src, x.Dst)
	}
	return sb.String()
}

// benchmarkIngestHTTP measures end-to-end ingest throughput: HTTP POST →
// NDJSON decode → label interning → bounded queue → worker → tracker
// feed, including waiting for the worker to fully process every record.
// Each iteration ingests the payload into a fresh server, so the cost is
// bounded and iterations are comparable. The custom metric
// interactions/sec is the headline: `go test -run '^$' -bench
// IngestHTTP ./internal/server` prints it for every variant.
func benchmarkIngestHTTP(b *testing.B, tracker tdnstream.TrackerSpec, lifetime tdnstream.LifetimeSpec, payload string, rows uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := StreamSpec{Name: "bench", Tracker: tracker, Lifetime: lifetime, TimeMode: TimeArrival}
		s, err := New(Config{Streams: []StreamSpec{spec}, QueueDepth: 1024, MaxChunk: 8192})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		w, _ := s.stream("bench")

		resp, err := ts.Client().Post(ts.URL+"/v1/ingest?stream=bench", ctNDJSON, strings.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
		// The queue decouples acceptance from processing; throughput
		// counts only fully processed interactions.
		for w.m.processed.Load() < rows {
			time.Sleep(time.Millisecond)
		}

		b.StopTimer()
		ts.Close()
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/secs, "interactions/sec")
	}
}

// BenchmarkIngestHTTPSieve is the headline serving-layer number for the
// Sieve tracker, on brightkite (the first dataset of the paper's Table
// I): a check-in stream dominated by repeat interactions, where the
// sieve's multi-edge dedup keeps per-record tracker cost low — so this
// measures the serving layer's own overhead on top of a fast tracker.
func BenchmarkIngestHTTPSieve(b *testing.B) {
	const rows = 50_000
	payload := benchPayload(b, "brightkite", rows)
	benchmarkIngestHTTP(b,
		tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1},
		tdnstream.LifetimeSpec{Policy: "constant", Window: 1 << 20},
		payload, rows)
}

// BenchmarkIngestHTTPSieveHiggs is the tracker-bound worst case: the
// twitter-higgs cascade stream, where nearly every record is a new
// directed pair and the sieve pays full oracle cost.
func BenchmarkIngestHTTPSieveHiggs(b *testing.B) {
	const rows = 20_000
	payload := benchPayload(b, "twitter-higgs", rows)
	benchmarkIngestHTTP(b,
		tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1},
		tdnstream.LifetimeSpec{Policy: "constant", Window: 1 << 20},
		payload, rows)
}

// benchmarkIngestHTTPShardedHiggs is the sharded form of the
// tracker-bound worst case: the same new-pair-heavy twitter-higgs stream
// behind a shard.Engine with the given partition count. This is the PR-3
// acceptance pair: 4 shards must move ≥ 2× the single tracker's
// interactions/sec on this workload.
func benchmarkIngestHTTPShardedHiggs(b *testing.B, shards int) {
	const rows = 20_000
	payload := benchPayload(b, "twitter-higgs", rows)
	benchmarkIngestHTTP(b,
		tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1, Shards: shards},
		tdnstream.LifetimeSpec{Policy: "constant", Window: 1 << 20},
		payload, rows)
}

func BenchmarkIngestHTTPSieveHiggsShards2(b *testing.B) { benchmarkIngestHTTPShardedHiggs(b, 2) }
func BenchmarkIngestHTTPSieveHiggsShards4(b *testing.B) { benchmarkIngestHTTPShardedHiggs(b, 4) }
func BenchmarkIngestHTTPSieveHiggsShards8(b *testing.B) { benchmarkIngestHTTPShardedHiggs(b, 8) }

// BenchmarkIngestHTTPSieveShards4 shards the brightkite stream, where
// the single tracker is already fast (the serving layer dominates) — the
// number to watch for sharding overhead on repeat-heavy workloads.
func BenchmarkIngestHTTPSieveShards4(b *testing.B) {
	const rows = 50_000
	payload := benchPayload(b, "brightkite", rows)
	benchmarkIngestHTTP(b,
		tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1, Shards: 4},
		tdnstream.LifetimeSpec{Policy: "constant", Window: 1 << 20},
		payload, rows)
}

// benchmarkIngestHTTPSubscribed is benchmarkIngestHTTP with nSubs live
// event subscribers attached to the stream: every snapshot publish is
// diffed and fanned out while ingest runs. This is the PR-4 acceptance
// pair with BenchmarkIngestHTTPSieve — 1000 subscribers must cost the
// ingest path less than 10% of its subscriber-free throughput, because
// fan-out work rides the hub's per-stream lock and bounded queues, never
// the worker's tracker loop.
func benchmarkIngestHTTPSubscribed(b *testing.B, nSubs int, payload string, rows uint64) {
	tracker := tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1}
	lifetime := tdnstream.LifetimeSpec{Policy: "constant", Window: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := StreamSpec{Name: "bench", Tracker: tracker, Lifetime: lifetime, TimeMode: TimeArrival}
		s, err := New(Config{Streams: []StreamSpec{spec}, QueueDepth: 1024, MaxChunk: 8192})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		w, _ := s.stream("bench")

		// Attaching the fleet is connection setup, not ingest work — it
		// happens once per dashboard session, not per record. Keep it off
		// the clock so the measured delta is the per-publish fan-out cost.
		b.StopTimer()
		var subWG sync.WaitGroup
		for n := 0; n < nSubs; n++ {
			sub, err := s.hub.Subscribe("bench", 0)
			if err != nil {
				b.Fatal(err)
			}
			subWG.Add(1)
			go func(sub *notify.Subscription) {
				defer subWG.Done()
				for range sub.C { // drain until the stream closes
				}
			}(sub)
		}
		b.StartTimer()

		resp, err := ts.Client().Post(ts.URL+"/v1/ingest?stream=bench", ctNDJSON, strings.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
		for w.m.processed.Load() < rows {
			time.Sleep(time.Millisecond)
		}

		b.StopTimer()
		ts.Close()
		s.Close() // closes subscriber channels via hub.RemoveStream
		subWG.Wait()
		b.StartTimer()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/secs, "interactions/sec")
	}
}

func BenchmarkIngestHTTPSieveSubscribers100(b *testing.B) {
	const rows = 50_000
	benchmarkIngestHTTPSubscribed(b, 100, benchPayload(b, "brightkite", rows), rows)
}

func BenchmarkIngestHTTPSieveSubscribers1000(b *testing.B) {
	const rows = 50_000
	benchmarkIngestHTTPSubscribed(b, 1000, benchPayload(b, "brightkite", rows), rows)
}

// BenchmarkIngestHTTPHistApprox is the same path with the paper's
// recommended general-TDN tracker and geometric decay, for the record
// alongside the Sieve numbers.
func BenchmarkIngestHTTPHistApprox(b *testing.B) {
	const rows = 20_000
	payload := benchPayload(b, "brightkite", rows)
	benchmarkIngestHTTP(b,
		tdnstream.TrackerSpec{Algo: "histapprox", K: 10, Eps: 0.2, L: 10_000},
		tdnstream.LifetimeSpec{Policy: "geometric", P: 0.001, L: 10_000, Seed: 42},
		payload, rows)
}

// benchmarkIngestHTTPWAL is benchmarkIngestHTTP with the write-ahead
// log on the ingest path: every chunk is framed, CRC'd and written
// before its 200, and (policy "always") group-commit fsynced. This is
// the PR-5 acceptance family — fsync=interval must keep ≥ 0.85× of
// BenchmarkIngestHTTPSieve's throughput, because the log costs one
// buffered-free write(2) per ~MaxChunk records and the fsyncs ride a
// background interval, not the ack path.
func benchmarkIngestHTTPWAL(b *testing.B, fsync string, payload string, rows uint64) {
	tracker := tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1}
	lifetime := tdnstream.LifetimeSpec{Policy: "constant", Window: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		walDir := b.TempDir() // fresh log per iteration: bounded, comparable cost
		b.StartTimer()
		spec := StreamSpec{Name: "bench", Tracker: tracker, Lifetime: lifetime, TimeMode: TimeArrival}
		s, err := New(Config{
			Streams: []StreamSpec{spec}, QueueDepth: 1024, MaxChunk: 8192,
			WALDir: walDir, WALFsync: fsync,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		w, _ := s.stream("bench")

		resp, err := ts.Client().Post(ts.URL+"/v1/ingest?stream=bench", ctNDJSON, strings.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
		for w.m.processed.Load() < rows {
			time.Sleep(time.Millisecond)
		}

		b.StopTimer()
		ts.Close()
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/secs, "interactions/sec")
	}
}

func BenchmarkIngestHTTPSieveWALNone(b *testing.B) {
	const rows = 50_000
	benchmarkIngestHTTPWAL(b, "none", benchPayload(b, "brightkite", rows), rows)
}

func BenchmarkIngestHTTPSieveWALInterval(b *testing.B) {
	const rows = 50_000
	benchmarkIngestHTTPWAL(b, "interval", benchPayload(b, "brightkite", rows), rows)
}

func BenchmarkIngestHTTPSieveWALAlways(b *testing.B) {
	const rows = 50_000
	benchmarkIngestHTTPWAL(b, "always", benchPayload(b, "brightkite", rows), rows)
}

// BenchmarkWALReplay measures recovery speed: how fast a crashed
// stream's log feeds back through the pipeline at boot.
func BenchmarkWALReplay(b *testing.B) {
	const rows = 50_000
	payload := benchPayload(b, "brightkite", rows)
	spec := StreamSpec{
		Name:    "bench",
		Tracker: tdnstream.TrackerSpec{Algo: "sieveadn", K: 10, Eps: 0.1},
		Lifetime: tdnstream.LifetimeSpec{
			Policy: "constant", Window: 1 << 20,
		},
		TimeMode: TimeArrival,
	}
	walDir := b.TempDir()
	cfg := Config{Streams: []StreamSpec{spec}, QueueDepth: 1024, MaxChunk: 8192, WALDir: walDir, WALFsync: "none"}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest?stream=bench", ctNDJSON, strings.NewReader(payload))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	w, _ := s.stream("bench")
	for w.m.processed.Load() < rows {
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	s.Close() // no checkpoint is saved: the log alone carries the state

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgB := cfg
		cfgB.Streams = nil
		rec, err := New(cfgB)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.AddStream(spec); err != nil { // replays the whole log
			b.Fatal(err)
		}
		wr, _ := rec.stream("bench")
		if got := wr.m.walReplayed.Load(); got != rows {
			b.Fatalf("replayed %d, want %d", got, rows)
		}
		b.StopTimer()
		rec.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/secs, "interactions/sec")
	}
}
