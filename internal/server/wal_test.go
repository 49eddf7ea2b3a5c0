package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"tdnstream"
	"tdnstream/internal/fault"
	"tdnstream/internal/notify"
	"tdnstream/internal/obs"
	"tdnstream/internal/wal"
)

// walRows builds n deterministic interactions, five per time step
// starting at t0, over a 37-node label space — enough churn that the
// top-k actually evolves, small enough that tests stay fast.
func walRows(n int, t0 int64) []tdnstream.Interaction {
	rows := make([]tdnstream.Interaction, n)
	for i := range rows {
		src := tdnstream.NodeID(i % 37)
		dst := tdnstream.NodeID((i*7 + 11) % 37)
		if dst == src {
			dst = (dst + 1) % 37
		}
		rows[i] = tdnstream.Interaction{Src: src, Dst: dst, T: t0 + int64(i/5)}
	}
	return rows
}

// streamInfoOf fetches one stream's /v1/streams entry.
func streamInfoOf(t *testing.T, base, name string) streamInfo {
	t.Helper()
	code, body := get(t, base+"/v1/streams")
	if code != http.StatusOK {
		t.Fatalf("streams: status %d: %s", code, body)
	}
	var resp struct {
		Streams []streamInfo `json:"streams"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, info := range resp.Streams {
		if info.Name == name {
			return info
		}
	}
	t.Fatalf("stream %q not listed", name)
	return streamInfo{}
}

// waitConverged blocks until every acknowledged record is accounted
// for: processed, stale-dropped, failed or superseded.
func waitConverged(t *testing.T, w *worker, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.m.processed.Load()+w.m.staleDrop.Load()+w.m.failed.Load()+w.m.superseded.Load() < n ||
		w.snapshot().Processed != w.m.processed.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out converging on %d records", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireSameAnswer pins the recovered server's logical state — top-k
// and stream counters — to the reference run's. Restart-local values
// (oracle calls, notify seq, queue gauges) are deliberately excluded.
func requireSameAnswer(t *testing.T, label string, got, want topKResponse, gotInfo, wantInfo streamInfo) {
	t.Helper()
	type answer struct {
		Algo      string
		T         int64
		Steps     uint64
		Processed uint64
		Value     int
		Seeds     []seedJSON
	}
	g := answer{got.Algo, got.T, got.Steps, got.Processed, got.Value, got.Seeds}
	w := answer{want.Algo, want.T, want.Steps, want.Processed, want.Value, want.Seeds}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: top-k diverged:\n got %+v\nwant %+v", label, g, w)
	}
	type counters struct {
		Ingested, Processed, StaleDropped, Failed, Superseded, Steps uint64
		Value                                                        int
	}
	gc := counters{gotInfo.Ingested, gotInfo.Processed, gotInfo.StaleDropped,
		gotInfo.Failed, gotInfo.Superseded, gotInfo.Steps, gotInfo.Value}
	wc := counters{wantInfo.Ingested, wantInfo.Processed, wantInfo.StaleDropped,
		wantInfo.Failed, wantInfo.Superseded, wantInfo.Steps, wantInfo.Value}
	if gc != wc {
		t.Fatalf("%s: counters diverged:\n got %+v\nwant %+v", label, gc, wc)
	}
}

// TestWALCrashRecoveryExact is the crash-recovery property: ingest N
// records, checkpoint mid-stream (with WAL truncation), keep ingesting,
// hard-abandon the server with no drain, and rebuild from the snapshot
// + WAL tail. The recovered top-k and stream counters must be identical
// to an uninterrupted run over the same input — acked-record loss zero.
func TestWALCrashRecoveryExact(t *testing.T) {
	spec := testSpec("crash")
	cfg := Config{
		Streams:         []StreamSpec{spec},
		MaxChunk:        100,
		WALDir:          t.TempDir(),
		WALFsync:        wal.FsyncAlways,
		WALSegmentBytes: 2048,
	}
	bodies := []string{
		ndjsonBody(t, walRows(1000, 1)),
		ndjsonBody(t, walRows(1000, 201)),
		ndjsonBody(t, walRows(1000, 401)),
	}

	a, tsA := newTestServer(t, cfg)
	wA, _ := a.stream("crash")
	if code, body := post(t, tsA.URL+"/v1/ingest?stream=crash", ctNDJSON, bodies[0]); code != http.StatusOK {
		t.Fatalf("post 1: %d: %s", code, body)
	}
	waitProcessed(t, wA, 1000)
	if err := a.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The synced snapshot licensed truncating covered history:
	// with 2 KiB segments and ~100-row records, segments must have gone.
	if start := wA.wlog.Start(); start.Seg == 0 {
		t.Fatalf("checkpoint did not truncate the WAL (start still %v)", start)
	}
	for i, body := range bodies[1:] {
		if code, b := post(t, tsA.URL+"/v1/ingest?stream=crash", ctNDJSON, body); code != http.StatusOK {
			t.Fatalf("post %d: %d: %s", i+2, code, b)
		}
	}
	// Crash: the HTTP listener dies and no checkpoint is written. Every
	// record above was acknowledged with 200, so the WAL owns the tail
	// regardless of how far the worker got. (In-process the dead
	// server's Close releases the log's flock, as the kernel would for
	// a killed process; the CI daemon smoke covers the real kill -9.)
	tsA.Close()
	a.Close()

	b, tsB := newTestServer(t, cfg)
	wB, _ := b.stream("crash")
	if wB.m.walReplayed.Load() == 0 {
		t.Fatal("recovery replayed nothing")
	}

	// The uninterrupted reference run: same input, no crash.
	refCfg := cfg
	refCfg.WALDir = t.TempDir()
	c, tsC := newTestServer(t, refCfg)
	wC, _ := c.stream("crash")
	for i, body := range bodies {
		if code, b := post(t, tsC.URL+"/v1/ingest?stream=crash", ctNDJSON, body); code != http.StatusOK {
			t.Fatalf("ref post %d: %d: %s", i+1, code, b)
		}
	}
	waitProcessed(t, wC, 3000)

	requireSameAnswer(t, "crash recovery",
		topK(t, tsB.URL, "crash"), topK(t, tsC.URL, "crash"),
		streamInfoOf(t, tsB.URL, "crash"), streamInfoOf(t, tsC.URL, "crash"))

	// The WAL surface is on /metrics and /v1/streams.
	if code, body := get(t, tsB.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), `influtrackd_wal_replayed_records_total{stream="crash"}`) ||
		!strings.Contains(string(body), `influtrackd_wal_bytes{stream="crash"}`) {
		t.Fatalf("wal metrics missing: %d", code)
	}
	if info := streamInfoOf(t, tsB.URL, "crash"); !info.WAL {
		t.Fatal("stream info does not report wal=true")
	}

	// Empty-tail boot chain (regression): a boot whose WAL replay finds
	// nothing past the watermark must carry the watermark forward, not
	// reset it — otherwise its next checkpoint records position zero
	// and the boot after that re-applies (or, post-truncation, fails
	// to find) the whole log.
	if err := b.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.Close() // release the log for the next incarnation
	d, tsD := newTestServer(t, cfg)
	wD, _ := d.stream("crash")
	if n := wD.m.walReplayed.Load(); n != 0 {
		t.Fatalf("empty-tail boot replayed %d records", n)
	}
	if err := d.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.Close()
	_, tsE := newTestServer(t, cfg)
	requireSameAnswer(t, "empty-tail boot chain",
		topK(t, tsE.URL, "crash"), topK(t, tsC.URL, "crash"),
		streamInfoOf(t, tsE.URL, "crash"), streamInfoOf(t, tsC.URL, "crash"))
	_ = tsD
}

// TestWALRecoveryFromGenesis covers the no-checkpoint crash: the WAL
// alone (replayed from its first segment) rebuilds the stream.
func TestWALRecoveryFromGenesis(t *testing.T) {
	spec := testSpec("genesis")
	cfg := Config{
		Streams:  []StreamSpec{spec},
		MaxChunk: 128,
		WALDir:   t.TempDir(),
		WALFsync: wal.FsyncInterval,
	}
	bodies := []string{
		ndjsonBody(t, walRows(600, 1)),
		ndjsonBody(t, walRows(600, 201)),
	}
	a, tsA := newTestServer(t, cfg)
	for _, body := range bodies {
		if code, b := post(t, tsA.URL+"/v1/ingest?stream=genesis", ctNDJSON, body); code != http.StatusOK {
			t.Fatalf("post: %d: %s", code, b)
		}
	}
	tsA.Close()
	a.Close() // crash stand-in: releases the flock like a dead process would

	_, tsB := newTestServer(t, cfg)

	refCfg := cfg
	refCfg.WALDir = t.TempDir()
	c, tsC := newTestServer(t, refCfg)
	wC, _ := c.stream("genesis")
	for _, body := range bodies {
		post(t, tsC.URL+"/v1/ingest?stream=genesis", ctNDJSON, body)
	}
	waitProcessed(t, wC, 1200)

	requireSameAnswer(t, "genesis recovery",
		topK(t, tsB.URL, "genesis"), topK(t, tsC.URL, "genesis"),
		streamInfoOf(t, tsB.URL, "genesis"), streamInfoOf(t, tsC.URL, "genesis"))
}

// TestCheckpointFailedSaveNeverTruncates is the ordering regression: a
// checkpoint whose snapshot cannot be synced must not advance the WAL
// truncation point — recovery still needs the full log behind the last
// *synced* snapshot.
func TestCheckpointFailedSaveNeverTruncates(t *testing.T) {
	spec := testSpec("nofail")
	inj := fault.NewInjector(nil, 1)
	cfg := Config{
		Streams:         []StreamSpec{spec},
		MaxChunk:        100,
		WALDir:          t.TempDir(),
		WALFsync:        wal.FsyncNone,
		WALSegmentBytes: 2048,
		FS:              inj,
		RepairBackoff:   time.Millisecond,
	}
	a, tsA := newTestServer(t, cfg)
	w, _ := a.stream("nofail")
	if code, b := post(t, tsA.URL+"/v1/ingest?stream=nofail", ctNDJSON, ndjsonBody(t, walRows(1000, 1))); code != http.StatusOK {
		t.Fatalf("post: %d: %s", code, b)
	}
	waitProcessed(t, w, 1000)

	// The snapshot's Sync fails (fsync=none: it is the only fsync).
	before := w.wlog.Start()
	inj.Add(fault.Rule{Op: fault.OpSync, Path: "seg-", Err: syscall.EIO, Count: 1})
	err := a.CheckpointAll(context.Background())
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("CheckpointAll error = %v, want the sync failure", err)
	}
	if got := w.wlog.Start(); got != before {
		t.Fatalf("failed checkpoint truncated the WAL: start %v → %v", before, got)
	}
	// The full history is still there: every record remains replayable
	// from genesis (read in-process — the live log holds the dir lock).
	replayable := 0
	if err := w.wlog.ReadFrom(wal.Pos{}, func(p []byte, _ wal.Pos) error {
		if kind, _ := wal.PayloadKind(p); kind == wal.KindSnapshot {
			return nil
		}
		rec, err := wal.DecodeRecord(p)
		if err != nil {
			return err
		}
		replayable += len(rec.Rows)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayable != 1000 {
		t.Fatalf("post-failed-checkpoint log replays %d records, want all 1000", replayable)
	}

	// The failure degraded the stream; once the repair loop has rotated
	// past it, the next checkpoint does truncate — and recovery from its
	// snapshot plus the remaining tail still answers exactly.
	deadline := time.Now().Add(10 * time.Second)
	for w.degraded.Load() {
		if time.Now().After(deadline) {
			t.Fatal("stream never repaired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := w.wlog.Start(); got == before {
		t.Fatalf("successful checkpoint did not truncate (start still %v)", got)
	}
	liveTopK := topK(t, tsA.URL, "nofail")
	liveInfo := streamInfoOf(t, tsA.URL, "nofail")
	a.Close()
	cfg.FS = nil
	_, tsB := newTestServer(t, cfg)
	requireSameAnswer(t, "post-save recovery",
		topK(t, tsB.URL, "nofail"), liveTopK,
		streamInfoOf(t, tsB.URL, "nofail"), liveInfo)
}

// TestWALRestoreMarkerRecovery: an in-place admin restore is logged in
// line with the chunks as a snapshot, so restore-then-ingest-then-crash
// recovers the exact live state — including counters — with no
// checkpoint taken after the restore.
func TestWALRestoreMarkerRecovery(t *testing.T) {
	spec := testSpec("marker")
	cfg := Config{
		Streams:  []StreamSpec{spec},
		MaxChunk: 100,
		WALDir:   t.TempDir(),
		WALFsync: wal.FsyncInterval,
	}
	a, tsA := newTestServer(t, cfg)
	w, _ := a.stream("marker")

	if code, b := post(t, tsA.URL+"/v1/ingest?stream=marker", ctNDJSON, ndjsonBody(t, walRows(500, 1))); code != http.StatusOK {
		t.Fatalf("post 1: %d: %s", code, b)
	}
	waitProcessed(t, w, 500)
	code, ckpt := post(t, tsA.URL+"/v1/admin/checkpoint?stream=marker", "application/octet-stream", "")
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d", code)
	}
	if code, b := post(t, tsA.URL+"/v1/ingest?stream=marker", ctNDJSON, ndjsonBody(t, walRows(500, 101))); code != http.StatusOK {
		t.Fatalf("post 2: %d: %s", code, b)
	}
	waitProcessed(t, w, 1000)
	// Roll back to the post-1 state, then keep ingesting on top of it.
	if code, b := post(t, tsA.URL+"/v1/admin/restore", "application/octet-stream", string(ckpt)); code != http.StatusOK {
		t.Fatalf("restore: %d: %s", code, b)
	}
	if code, b := post(t, tsA.URL+"/v1/ingest?stream=marker", ctNDJSON, ndjsonBody(t, walRows(500, 301))); code != http.StatusOK {
		t.Fatalf("post 3: %d: %s", code, b)
	}
	waitConverged(t, w, 1500)
	liveTopK := topK(t, tsA.URL, "marker")
	liveInfo := streamInfoOf(t, tsA.URL, "marker")
	tsA.Close()
	a.Close()

	_, tsB := newTestServer(t, cfg)
	requireSameAnswer(t, "restore-marker recovery",
		topK(t, tsB.URL, "marker"), liveTopK,
		streamInfoOf(t, tsB.URL, "marker"), liveInfo)
}

// TestWALStreamToggle: wal=off keeps a stream's chunks out of the log on
// a WAL-enabled server (its log holds snapshots only); on is the
// default; junk is rejected.
func TestWALStreamToggle(t *testing.T) {
	walDir := t.TempDir()
	on := testSpec("logged")
	off := testSpec("unlogged")
	off.WAL = WALOff
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{on, off}, WALDir: walDir})
	wOn, _ := s.stream("logged")
	wOff, _ := s.stream("unlogged")
	if wOn.wlog == nil || !wOn.logChunks {
		t.Fatal("wal-on stream logs no chunks")
	}
	if wOff.logChunks {
		t.Fatal("wal=off stream logs chunks")
	}
	if info := streamInfoOf(t, ts.URL, "logged"); !info.WAL {
		t.Fatal("logged stream info lacks wal flag")
	}
	if info := streamInfoOf(t, ts.URL, "unlogged"); info.WAL {
		t.Fatal("unlogged stream info claims wal")
	}
	// Ingest works on both; only the logged stream appends.
	body := ndjsonBody(t, walRows(50, 1))
	for _, name := range []string{"logged", "unlogged"} {
		if code, b := post(t, ts.URL+"/v1/ingest?stream="+name, ctNDJSON, body); code != http.StatusOK {
			t.Fatalf("ingest %s: %d: %s", name, code, b)
		}
	}
	if wOn.m.walAppended.Load() != 50 || wOff.m.walAppended.Load() != 0 {
		t.Fatalf("wal appended: logged %d (want 50), unlogged %d (want 0)",
			wOn.m.walAppended.Load(), wOff.m.walAppended.Load())
	}
	if n := chunkFrames(t, wOff); n != 0 {
		t.Fatalf("wal=off stream logged %d chunk frames", n)
	}

	// An in-place restore keeps the hosting stream's WAL mode: a donor
	// checkpoint from a wal=off stream must not flip a logged stream
	// off (the next boot would skip the tail replay entirely).
	offCkpt, err := s.Checkpoint(context.Background(), "unlogged")
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeCheckpoint(offCkpt)
	if err != nil {
		t.Fatal(err)
	}
	env.Spec.Name = "logged"
	var rerr error
	if err := wOn.do(context.Background(), func() { rerr = wOn.restore(env) }); err != nil || rerr != nil {
		t.Fatalf("restore: %v / %v", err, rerr)
	}
	if got := wOn.state.Load().spec.WAL; got == WALOff {
		t.Fatal("in-place restore adopted the donor checkpoint's wal=off")
	}

	bad := testSpec("bad")
	bad.WAL = "sometimes"
	if err := s.AddStream(bad); err == nil {
		t.Fatal("bad wal mode accepted")
	}
	if _, err := New(Config{WALDir: walDir, WALFsync: "yolo"}); err == nil {
		t.Fatal("bad wal fsync policy accepted")
	}
}

// TestWALRemoveStreamDeletesLog: DELETE ends the stream's life — a
// namesake re-created later must not inherit its history.
func TestWALRemoveStreamDeletesLog(t *testing.T) {
	spec := testSpec("doomed")
	walDir := t.TempDir()
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{spec}, WALDir: walDir})
	if code, b := post(t, ts.URL+"/v1/ingest?stream=doomed", ctNDJSON, ndjsonBody(t, walRows(50, 1))); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, b)
	}
	if err := s.RemoveStream("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "doomed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("removed stream's wal directory survives: %v", err)
	}
	// A namesake starts empty.
	if err := s.AddStream(spec); err != nil {
		t.Fatal(err)
	}
	if resp := topK(t, ts.URL, "doomed"); resp.Processed != 0 || resp.T != 0 {
		t.Fatalf("re-created stream inherited history: %+v", resp)
	}
}

// TestEventsTypesFilter: ?types=entered,left subscriptions skip
// gain_changed/keyframe traffic at fan-out, still get the resume
// keyframe, and a typo answers 400.
func TestEventsTypesFilter(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("filter")}})
	w, _ := s.stream("filter")

	filtered := sseSubscribe(t, ts.URL+"/v1/streams/filter/events?types=entered,left", "")
	all := sseSubscribe(t, ts.URL+"/v1/streams/filter/events", "")

	// Drive an entered (s1), then its expiry plus a new entered (s2) —
	// with k=1 over a 10-step window this also produces value drift
	// (gain_changed) along the way for the unfiltered consumer.
	post(t, ts.URL+"/v1/ingest?stream=filter", ctNDJSON, burst("s1", 1, 5))
	waitProcessed(t, w, 5)
	post(t, ts.URL+"/v1/ingest?stream=filter", ctNDJSON, burst("s1", 2, 3))
	waitProcessed(t, w, 8)
	post(t, ts.URL+"/v1/ingest?stream=filter", ctNDJSON, burst("s2", 30, 5))
	waitProcessed(t, w, 13)

	evs := filtered.collectUntil(t, func(evs []notify.Event) bool {
		return hasTyped(evs, notify.Entered, "s2") && hasTyped(evs, notify.Left, "s1")
	})
	for i, ev := range evs {
		if i == 0 && ev.Type == notify.Keyframe {
			continue // the subscribe-time resync keyframe is exempt
		}
		if ev.Type != notify.Entered && ev.Type != notify.Left {
			t.Fatalf("filtered subscriber received %q at index %d: %+v", ev.Type, i, ev)
		}
	}
	if !hasTyped(evs, notify.Entered, "s1") || !hasTyped(evs, notify.Left, "s1") {
		t.Fatalf("filtered subscriber missed membership churn: %+v", evs)
	}
	// The unfiltered twin saw at least everything the filter passed,
	// plus the suppressed types (value drift between the bursts).
	allEvs := all.collectUntil(t, func(evs []notify.Event) bool {
		return hasTyped(evs, notify.Entered, "s2") && hasTyped(evs, notify.Left, "s1")
	})
	sawOther := false
	for _, ev := range allEvs {
		if ev.Type == notify.GainChanged || ev.Type == notify.Keyframe {
			sawOther = true
		}
	}
	if !sawOther {
		t.Fatalf("unfiltered subscriber saw no gain_changed/keyframe — filter test proves nothing: %+v", allEvs)
	}

	if code, body := get(t, ts.URL+"/v1/streams/filter/events?types=entered,bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus type: status %d: %s", code, body)
	}
}

// chunkFrames counts the chunk frames in a live stream's log.
func chunkFrames(t *testing.T, w *worker) int {
	t.Helper()
	n := 0
	if err := w.wlog.ReadFrom(w.wlog.Start(), func(p []byte, _ wal.Pos) error {
		if kind, _ := wal.PayloadKind(p); kind == wal.KindChunk {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCheckpointUnderIngestRecoversAckedRecords: a checkpoint serializes
// on the worker goroutine while handlers keep appending and
// acknowledging chunks, so a chunk can land in the log ahead of the
// snapshot frame without being in its state. Recovery must replay it —
// the snapshot covers the applied watermark, not its own position. The
// injector stalls one ingest append inside its write, after the
// checkpoint's drain found the queue empty and before the snapshot
// append, which makes that interleaving deterministic.
func TestCheckpointUnderIngestRecoversAckedRecords(t *testing.T) {
	spec := testSpec("race")
	spec.TimeMode = TimeArrival
	inj := fault.NewInjector(nil, 1)
	cfg := Config{
		Streams:  []StreamSpec{spec},
		MaxChunk: 100,
		WALDir:   t.TempDir(),
		WALFsync: wal.FsyncAlways,
		FS:       inj,
	}
	a, tsA := newTestServer(t, cfg)
	w, _ := a.stream("race")
	if code, b := post(t, tsA.URL+"/v1/ingest?stream=race", ctNDJSON, ndjsonBody(t, walRows(300, 1))); code != http.StatusOK {
		t.Fatalf("post 1: %d: %s", code, b)
	}
	waitProcessed(t, w, 300)

	inj.Add(fault.Rule{Op: fault.OpWrite, Path: "seg-", Count: 1, Delay: 300 * time.Millisecond})
	acked := make(chan int, 1)
	go func() {
		resp, err := http.Post(tsA.URL+"/v1/ingest?stream=race", ctNDJSON,
			strings.NewReader(ndjsonBody(t, walRows(100, 301))))
		if err != nil {
			acked <- 0
			return
		}
		resp.Body.Close()
		acked <- resp.StatusCode
	}()
	for inj.Rules()[0].Fired == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := <-acked; code != http.StatusOK {
		t.Fatalf("concurrent ingest: status %d", code)
	}
	waitProcessed(t, w, 400)
	liveTopK := topK(t, tsA.URL, "race")
	liveInfo := streamInfoOf(t, tsA.URL, "race")
	tsA.Close()
	a.Close()

	cfg.FS = nil
	b, tsB := newTestServer(t, cfg)
	wB, _ := b.stream("race")
	if n := wB.m.walReplayed.Load(); n != 100 {
		t.Fatalf("recovery replayed %d records, want the 100 acked behind the snapshot's state", n)
	}
	requireSameAnswer(t, "checkpoint under ingest",
		topK(t, tsB.URL, "race"), liveTopK,
		streamInfoOf(t, tsB.URL, "race"), liveInfo)
}

// TestCheckpointsUnderConcurrentIngestRecover: periodic checkpoints
// racing concurrent ingesters — snapshot appends, syncs and truncations
// interleaved with chunk appends and segment rotations — still leave a
// log that recovers the exact live state after a crash.
func TestCheckpointsUnderConcurrentIngestRecover(t *testing.T) {
	spec := testSpec("busy")
	spec.TimeMode = TimeArrival
	cfg := Config{
		Streams:         []StreamSpec{spec},
		WALDir:          t.TempDir(),
		WALSegmentBytes: 1024,
	}
	a, tsA := newTestServer(t, cfg)
	w, _ := a.stream("busy")
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		a.PeriodicCheckpoints(ctx, time.Millisecond, func(err error) { t.Error(err) })
	}()
	const ingesters, posts = 4, 40
	errs := make(chan error, ingesters)
	for g := 0; g < ingesters; g++ {
		go func(g int) {
			for i := 0; i < posts; i++ {
				body := ndjsonBody(t, walRows(20, int64(g*1000+i*10+1)))
				resp, err := http.Post(tsA.URL+"/v1/ingest?stream=busy", ctNDJSON, strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest: status %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < ingesters; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	<-loopDone
	waitConverged(t, w, ingesters*posts*20)
	if w.wlog.Start().Seg == 0 {
		t.Fatal("no checkpoint truncated the log")
	}
	liveTopK := topK(t, tsA.URL, "busy")
	liveInfo := streamInfoOf(t, tsA.URL, "busy")
	tsA.Close()
	a.Close()

	_, tsB := newTestServer(t, cfg)
	requireSameAnswer(t, "checkpoints under concurrent ingest",
		topK(t, tsB.URL, "busy"), liveTopK,
		streamInfoOf(t, tsB.URL, "busy"), liveInfo)
}

// TestIdleCheckpointsKeepLogSize: a stream with nothing new since its
// newest snapshot is skipped, so repeated periodic checkpoints of an
// idle stream neither grow the log nor log another snapshot.
func TestIdleCheckpointsKeepLogSize(t *testing.T) {
	flight := obs.NewFlight(64, nil)
	s, ts := newTestServer(t, Config{
		Streams: []StreamSpec{testSpec("idle")},
		WALDir:  t.TempDir(),
		Flight:  flight,
	})
	w, _ := s.stream("idle")
	if code, b := post(t, ts.URL+"/v1/ingest?stream=idle", ctNDJSON, ndjsonBody(t, walRows(100, 1))); code != http.StatusOK {
		t.Fatalf("post: %d: %s", code, b)
	}
	waitProcessed(t, w, 100)
	ingested := streamInfoOf(t, ts.URL, "idle").WALBytes

	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.PeriodicCheckpoints(ctx, 2*time.Millisecond, func(err error) { t.Error(err) })
	}()
	defer func() {
		cancel()
		<-loopDone
	}()
	deadline := time.Now().Add(10 * time.Second)
	for streamInfoOf(t, ts.URL, "idle").WALBytes == ingested {
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshot was logged")
		}
		time.Sleep(time.Millisecond)
	}
	snapped := streamInfoOf(t, ts.URL, "idle").WALBytes
	time.Sleep(50 * time.Millisecond) // ~25 more ticks
	for i := 0; i < 3; i++ {
		if err := s.CheckpointAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := streamInfoOf(t, ts.URL, "idle").WALBytes; got != snapped {
		t.Fatalf("idle checkpoints changed wal_bytes: %d → %d", snapped, got)
	}
	saved := 0
	for _, ev := range flight.Events() {
		if ev.Kind == obs.EventCheckpointSaved {
			saved++
		}
	}
	if saved != 1 {
		t.Fatalf("%d checkpoint snapshots logged for an idle stream, want 1", saved)
	}

	// An event published without processing moves only the notify
	// sequence; the next checkpoint must still record it, or a restart
	// would reuse sequence numbers subscribers have already seen.
	s.hub.PublishStatus("idle", StateHealthy, "")
	if err := s.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	env, _, err := w.newestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq := w.snapshot().Seq; env.NotifySeq <= seq {
		t.Fatalf("snapshot notify seq %d, want past the published snapshot's %d", env.NotifySeq, seq)
	}
}

// TestBootHostsLoggedStreams: New re-hosts every stream whose log holds
// a snapshot, including streams no configured spec names (created over
// HTTP), under the snapshot's spec. A configured spec keeps its token;
// a log without a snapshot is left alone until a spec names it.
func TestBootHostsLoggedStreams(t *testing.T) {
	walDir := t.TempDir()
	flagged := testSpec("flagged")
	flagged.Token = "s3cret"
	created := testSpec("created")
	created.WAL = WALOff
	unsnapped := testSpec("unsnapped")
	s, ts := newTestServer(t, Config{WALDir: walDir, Streams: []StreamSpec{flagged}})
	if err := s.AddStream(created); err != nil {
		t.Fatal(err)
	}
	body := ndjsonBody(t, walRows(200, 1))
	for _, name := range []string{"flagged", "created"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?stream="+name, strings.NewReader(body))
		req.Header.Set("Content-Type", ctNDJSON)
		req.Header.Set("Authorization", "Bearer s3cret")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: %d", name, resp.StatusCode)
		}
		w, _ := s.stream(name)
		waitProcessed(t, w, 200)
	}
	if err := s.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddStream(unsnapped); err != nil {
		t.Fatal(err)
	}
	if code, b := post(t, ts.URL+"/v1/ingest?stream=unsnapped", ctNDJSON, body); code != http.StatusOK {
		t.Fatalf("ingest unsnapped: %d: %s", code, b)
	}
	wU, _ := s.stream("unsnapped")
	waitProcessed(t, wU, 200)
	want := map[string]topKResponse{}
	for _, name := range []string{"flagged", "created", "unsnapped"} {
		want[name] = topK(t, ts.URL, name)
	}
	ts.Close()
	s.Close()

	s2, ts2 := newTestServer(t, Config{WALDir: walDir, Streams: []StreamSpec{flagged}})
	if got := s2.StreamNames(); !reflect.DeepEqual(got, []string{"created", "flagged"}) {
		t.Fatalf("booted streams %v, want [created flagged]", got)
	}
	for _, name := range []string{"flagged", "created"} {
		if got := topK(t, ts2.URL, name); !reflect.DeepEqual(got.Seeds, want[name].Seeds) || got.T != want[name].T {
			t.Fatalf("%s: recovered %+v, want %+v", name, got, want[name])
		}
	}
	if w, _ := s2.stream("flagged"); w.token != "s3cret" {
		t.Fatalf("flagged stream token %q, want the spec's", w.token)
	}
	if info := streamInfoOf(t, ts2.URL, "created"); info.WAL {
		t.Fatal("discovered wal=off stream came back logging chunks")
	}
	// A spec naming the snapshot-less log replays it from genesis.
	if err := s2.AddStream(unsnapped); err != nil {
		t.Fatal(err)
	}
	if got := topK(t, ts2.URL, "unsnapped"); !reflect.DeepEqual(got.Seeds, want["unsnapped"].Seeds) || got.T != want["unsnapped"].T {
		t.Fatalf("unsnapped: recovered %+v, want %+v", got, want["unsnapped"])
	}
}

// TestTruncatedLogWithoutSnapshotRefused: a log whose early segments are
// gone but which holds no snapshot covering them cannot be replayed
// exactly, so hosting the stream fails loudly instead of serving a
// partial state.
func TestTruncatedLogWithoutSnapshotRefused(t *testing.T) {
	walDir := t.TempDir()
	l, err := wal.Open(filepath.Join(walDir, "gap"), wal.Options{Fsync: wal.FsyncNone, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var last wal.Pos
	for i := 0; i < 10; i++ {
		rec := wal.Record{Rows: walRows(5, int64(i*10+1))}
		if last, _, err = l.Append(rec.AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := New(Config{WALDir: walDir, Streams: []StreamSpec{testSpec("gap")}}); err == nil ||
		!strings.Contains(err.Error(), "holds no snapshot") {
		t.Fatalf("truncated snapshot-less log: err = %v, want a refusal", err)
	}
}
