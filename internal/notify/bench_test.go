package notify

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdnstream/internal/ids"
)

// benchmarkFanout measures the hub's publish→deliver path at a given
// subscriber count: each iteration publishes one top-k churn (exactly one
// entered + one left event), every subscriber drains its queue in its
// own goroutine timestamping arrival against the publish time, and the
// publisher waits for the whole fleet to drain before the next publish —
// snapshot publishes ride chunk processing, which runs at millisecond
// cadence, so the interesting number is how long one publish takes to
// reach the last subscriber, not how deep queues grow when a synthetic
// loop deliberately overruns every drain goroutine. The custom metrics
// are p50/p99 publish→deliver latency across every (event, subscriber)
// delivery, and aggregate delivered events/sec (`go test -run '^$'
// -bench Fanout ./internal/notify`).
func benchmarkFanout(b *testing.B, nSubs int) {
	h := NewHub(Config{SubscriberBuffer: 1 << 14, KeyframeEvery: 1 << 30})
	h.Publish("s", TopK{Entries: []Entry{{ID: 0}, {ID: 1}}}) // genesis keyframe

	// pubNs[seq] is stamped before the publish that assigns seq; the
	// channel send/receive orders the subscriber's read after it.
	maxSeq := uint64(b.N)*2 + 8
	pubNs := make([]int64, maxSeq+1)

	var delivered atomic.Int64
	lats := make([][]int64, nSubs)
	var wg sync.WaitGroup
	for i := 0; i < nSubs; i++ {
		sub, err := h.Subscribe("s", h.Seq("s"))
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			for batch := range sub.C {
				now := time.Now().UnixNano()
				for _, ev := range batch {
					if ev.Seq <= maxSeq {
						lats[i] = append(lats[i], now-pubNs[ev.Seq])
						delivered.Add(1)
					}
				}
			}
		}(i, sub)
	}

	b.ResetTimer()
	var target int64
	for i := 0; i < b.N; i++ {
		cur := h.Seq("s")
		now := time.Now().UnixNano()
		for s := cur + 1; s <= cur+2 && s <= maxSeq; s++ {
			pubNs[s] = now
		}
		// {0, 1000+i} vs {0, 999+i}: entered 1000+i, left 999+i.
		h.Publish("s", TopK{T: int64(i), Value: i, Entries: []Entry{
			{ID: 0}, {ID: ids.NodeID(1000 + i)},
		}})
		target += int64(2 * nSubs)
		for delivered.Load() < target {
			runtime.Gosched()
		}
	}
	h.RemoveStream("s")
	wg.Wait()
	b.StopTimer()

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		b.Fatal("no deliveries measured")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	b.ReportMetric(float64(p99)/1e6, "p99_ms")
	b.ReportMetric(float64(all[len(all)/2])/1e6, "p50_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(all))/secs, "deliveries/sec")
	}
}

func BenchmarkFanout1(b *testing.B)    { benchmarkFanout(b, 1) }
func BenchmarkFanout100(b *testing.B)  { benchmarkFanout(b, 100) }
func BenchmarkFanout1000(b *testing.B) { benchmarkFanout(b, 1000) }

// BenchmarkDiff is the differ's raw cost per publish at k=10 with one
// membership churn — the fixed toll every snapshot publish pays.
func BenchmarkDiff(b *testing.B) {
	var d Differ
	mk := func(i int) TopK {
		s := TopK{T: int64(i), Value: 100 + i}
		for j := 0; j < 10; j++ {
			s.Entries = append(s.Entries, Entry{ID: ids.NodeID(j)})
		}
		s.Entries[9].ID = ids.NodeID(1000 + i)
		return s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Diff(mk(i))
	}
}
