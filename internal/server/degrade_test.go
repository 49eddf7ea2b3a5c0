package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"tdnstream/internal/fault"
	"tdnstream/internal/notify"
)

// faultConfig builds a WAL-enabled config with a fault injector wired as
// the filesystem seam and fast repair backoffs, hosting one stream.
func faultConfig(t *testing.T, fsyncPolicy string) (Config, *fault.Injector) {
	t.Helper()
	inj := fault.NewInjector(nil, 1)
	return Config{
		WALDir:           t.TempDir(),
		WALFsync:         fsyncPolicy,
		Fault:            inj,
		RepairBackoff:    2 * time.Millisecond,
		RepairBackoffMax: 20 * time.Millisecond,
		Streams:          []StreamSpec{testSpec("s")},
	}, inj
}

// waitState polls the stream's serving state until it matches.
func waitState(t *testing.T, wk *worker, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for wk.serveState() != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for state %q (now %q, last error %q)",
				want, wk.serveState(), wk.lastError())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDegradedLifecycle walks the whole graceful-degradation arc: a
// persistent fsync EIO degrades the stream (first request 500, then 503
// + Retry-After), reads keep serving, /healthz and /v1/streams surface
// the state, and once the fault lifts the background repair heals the
// stream and ingest resumes — with the transitions published as
// stream_status events.
func TestDegradedLifecycle(t *testing.T) {
	cfg, inj := faultConfig(t, "always")
	s, ts := newTestServer(t, cfg)
	wk, _ := s.stream("s")

	// Watch status transitions from before the fault.
	sub, err := s.hub.SubscribeTypes("s", 0, []notify.EventType{notify.StreamStatus})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	if code, body := post(t, ts.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, walRows(10, 1))); code != http.StatusOK {
		t.Fatalf("clean ingest: status %d: %s", code, body)
	}

	// Every fsync on a segment now fails — the disk is "dying".
	inj.Add(fault.Rule{Op: fault.OpSync, Path: "seg-", Err: syscall.EIO})

	code, body := post(t, ts.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, walRows(10, 100)))
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted ingest: status %d, want 500: %s", code, body)
	}
	waitState(t, wk, StateDegraded)

	// Subsequent ingest is refused up front with 503 + Retry-After.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?stream=s", strings.NewReader(ndjsonBody(t, walRows(5, 200))))
	req.Header.Set("Content-Type", ctNDJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After header")
	}

	// Reads keep serving the last good snapshot.
	if got := topK(t, ts.URL, "s"); got.Processed == 0 {
		t.Fatal("degraded stream stopped serving reads")
	}

	// The state is surfaced everywhere an operator looks.
	codeH, bodyH := get(t, ts.URL+"/healthz")
	if codeH != http.StatusOK || !strings.Contains(string(bodyH), `"status":"degraded"`) {
		t.Fatalf("healthz while degraded: %d %s", codeH, bodyH)
	}
	if !strings.Contains(string(bodyH), `"state":"degraded"`) {
		t.Fatalf("healthz stream entry lacks degraded state: %s", bodyH)
	}
	_, bodyM := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(bodyM), `influtrackd_wal_degraded{stream="s"} 1`) {
		t.Fatalf("metrics lack wal_degraded=1:\n%s", bodyM)
	}

	// Fault lifts; the background repair heals the stream.
	inj.Clear()
	waitState(t, wk, StateHealthy)
	if wk.m.walRepairs.Load() == 0 {
		t.Fatal("healed stream recorded no repair")
	}

	// Ingest resumes, and the new records survive the repaired log.
	if code, body := post(t, ts.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, walRows(10, 300))); code != http.StatusOK {
		t.Fatalf("post-repair ingest: status %d: %s", code, body)
	}

	// The transitions were pushed: degraded (with the fault detail), then
	// healthy.
	var statuses []notify.Event
	for _, ev := range sub.Backlog {
		if ev.Type == notify.StreamStatus {
			statuses = append(statuses, ev)
		}
	}
	deadline := time.After(5 * time.Second)
	for len(statuses) < 2 {
		select {
		case evs, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d status events", len(statuses))
			}
			for _, ev := range evs {
				if ev.Type == notify.StreamStatus {
					statuses = append(statuses, ev)
				}
			}
		case <-deadline:
			t.Fatalf("timed out: %d status events", len(statuses))
		}
	}
	if statuses[0].Status != StateDegraded || !strings.Contains(statuses[0].Detail, "fsync") {
		t.Fatalf("first status event = %+v, want degraded with fsync detail", statuses[0])
	}
	if statuses[1].Status != StateHealthy {
		t.Fatalf("second status event = %+v, want healthy", statuses[1])
	}
}

// TestSnapshotOnlyLogDegradeVisible: a wal=off stream under WALDir
// keeps a log for its snapshots, and a failed snapshot degrades it. The
// per-log WAL rows and the wal health component must show the fault
// and the repair, as they do for a stream that logs its chunks.
func TestSnapshotOnlyLogDegradeVisible(t *testing.T) {
	spec := testSpec("plain")
	spec.WAL = WALOff
	inj := fault.NewInjector(nil, 1)
	s, ts := newTestServer(t, Config{
		WALDir:           t.TempDir(),
		Fault:            inj,
		RepairBackoff:    2 * time.Millisecond,
		RepairBackoffMax: 20 * time.Millisecond,
		Streams:          []StreamSpec{spec},
	})
	wk, _ := s.stream("plain")
	if code, body := post(t, ts.URL+"/v1/ingest?stream=plain", ctNDJSON, ndjsonBody(t, walRows(50, 1))); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	waitProcessed(t, wk, 50)
	sample := func(family, key, value string) float64 {
		t.Helper()
		if f := famOf(scrape(t, ts.URL), family); f != nil {
			for _, smp := range f.Samples {
				if smp.Labels[key] == value {
					return smp.Value
				}
			}
		}
		t.Fatalf("no %s{%s=%q} row on /metrics", family, key, value)
		return 0
	}

	// The snapshot's write fails; failing segment creation too keeps
	// Repair from rotating past the fault until it clears.
	seg := filepath.Join("plain", "seg-")
	inj.Add(fault.Rule{Op: fault.OpWrite, Path: seg, Err: syscall.EIO})
	inj.Add(fault.Rule{Op: fault.OpOpen, Path: seg, Err: syscall.EIO})
	if err := s.CheckpointAll(context.Background()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("CheckpointAll = %v, want the write failure", err)
	}
	waitState(t, wk, StateDegraded)
	if code, _ := post(t, ts.URL+"/v1/ingest?stream=plain", ctNDJSON, ndjsonBody(t, walRows(5, 100))); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: status %d, want 503", code)
	}
	if got := sample("influtrackd_wal_degraded", "stream", "plain"); got != 1 {
		t.Fatalf("wal_degraded = %g while degraded, want 1", got)
	}
	if got := sample("influtrackd_health_component", "component", "wal"); got >= 1 {
		t.Fatalf("wal health component = %g while degraded, want < 1", got)
	}

	inj.Clear()
	waitState(t, wk, StateHealthy)
	if got := sample("influtrackd_wal_degraded", "stream", "plain"); got != 0 {
		t.Fatalf("wal_degraded = %g after repair, want 0", got)
	}
	if got := sample("influtrackd_wal_repairs_total", "stream", "plain"); got != 1 {
		t.Fatalf("wal_repairs_total = %g after repair, want 1", got)
	}
}

// TestDegradedRepairRoundTrip pins the recovery contract end to end: a
// stream that degrades mid-ingest, repairs, and has the failed request
// retried ends up with a tracker state byte-identical to an
// uninterrupted run. Event-time mode makes the retry exact — records the
// faulted request already fed are stale-dropped on the retry, never
// double-counted.
func TestDegradedRepairRoundTrip(t *testing.T) {
	rows := walRows(50, 1)

	cfgA, inj := faultConfig(t, "always")
	sA, tsA := newTestServer(t, cfgA)
	wkA, _ := sA.stream("s")

	if code, _ := post(t, tsA.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, rows[:25])); code != http.StatusOK {
		t.Fatalf("phase 1: %d", code)
	}
	// One fsync fault: the commit of the next request fails after its
	// chunks are queued — the ack-ambiguous outcome.
	inj.Add(fault.Rule{Op: fault.OpSync, Path: "seg-", Err: syscall.EIO, Count: 1})
	if code, _ := post(t, tsA.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, rows[25:40])); code != http.StatusInternalServerError {
		t.Fatalf("faulted request: %d, want 500", code)
	}
	waitState(t, wkA, StateHealthy) // repair heals on its own
	// Client-side at-least-once retry of the unacknowledged request.
	if code, _ := post(t, tsA.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, rows[25:40])); code != http.StatusOK {
		t.Fatalf("retry: %d", code)
	}
	if code, _ := post(t, tsA.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, rows[40:])); code != http.StatusOK {
		t.Fatalf("phase 3: %d", code)
	}
	waitProcessed(t, wkA, 65) // 50 distinct + 15 retried (stale-dropped)

	// The uninterrupted control run.
	sB, tsB := newTestServer(t, Config{WALDir: t.TempDir(), WALFsync: "always", Streams: []StreamSpec{testSpec("s")}})
	wkB, _ := sB.stream("s")
	for _, span := range [][2]int{{0, 25}, {25, 40}, {40, 50}} {
		if code, _ := post(t, tsB.URL+"/v1/ingest?stream=s", ctNDJSON, ndjsonBody(t, rows[span[0]:span[1]])); code != http.StatusOK {
			t.Fatalf("control ingest: %d", code)
		}
	}
	waitProcessed(t, wkB, 50)

	// Compare observable tracker state. (The gob blobs themselves encode
	// maps, so identical states may serialize to different byte orders —
	// the solution, clock and step count are the deterministic surface.)
	observed := func(wk *worker) topKResponse {
		var out topKResponse
		snap := wk.snapshot()
		out.T, out.Steps, out.Processed = snap.T, snap.Steps, snap.Processed
		out.Value = snap.Solution.Value
		for _, id := range snap.Solution.Seeds {
			out.Seeds = append(out.Seeds, seedJSON{ID: id, Label: wk.labels.name(id)})
		}
		return out
	}
	a, b := observed(wkA), observed(wkB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tracker state diverged after degrade/repair/retry:\n%+v\nvs control\n%+v", a, b)
	}

	// And the repaired log replays to the same state: reboot server A's
	// directory from scratch (no checkpoint) and compare again.
	tsA.Close()
	sA.Close()
	sA2, err := New(Config{WALDir: cfgA.WALDir, WALFsync: "always", Streams: []StreamSpec{testSpec("s")}})
	if err != nil {
		t.Fatal(err)
	}
	defer sA2.Close()
	wkA2, _ := sA2.stream("s")
	if got := observed(wkA2); !reflect.DeepEqual(got, b) {
		t.Fatalf("replayed state diverged from control:\n%+v\nvs\n%+v", got, b)
	}
}

// TestFaultAdminEndpoint exercises the chaos control surface: install,
// list, drop and clear rules over HTTP — and its absence (404) when the
// server has no injector.
func TestFaultAdminEndpoint(t *testing.T) {
	inj := fault.NewInjector(nil, 7)
	_, ts := newTestServer(t, Config{Fault: inj, Streams: []StreamSpec{testSpec("s")}})

	code, body := post(t, ts.URL+"/v1/admin/fault", "application/json",
		`{"op":"sync","path":"seg-","err":"eio","after":3,"count":2,"delay_ms":1}`)
	if code != http.StatusCreated {
		t.Fatalf("add rule: %d %s", code, body)
	}
	var added struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &added); err != nil || added.ID == 0 {
		t.Fatalf("add rule response: %s", body)
	}

	code, body = get(t, ts.URL+"/v1/admin/fault")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var listed struct {
		Rules []fault.RuleStatus `json:"rules"`
	}
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Rules) != 1 || listed.Rules[0].Op != fault.OpSync || listed.Rules[0].Err != "input/output error" {
		t.Fatalf("listed rules: %s", body)
	}

	// Unknown op and no-effect rules are refused.
	if code, _ := post(t, ts.URL+"/v1/admin/fault", "application/json", `{"op":"chmod","err":"eio"}`); code != http.StatusBadRequest {
		t.Fatalf("bad op: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/admin/fault", "application/json", `{"op":"write"}`); code != http.StatusBadRequest {
		t.Fatalf("no-effect rule: %d", code)
	}

	// Drop by id, then clear.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/admin/fault?id=%d", ts.URL, added.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d", resp.StatusCode)
	}
	post(t, ts.URL+"/v1/admin/fault", "application/json", `{"op":"write","err":"enospc"}`)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/fault", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clear: %d", resp.StatusCode)
	}
	if len(inj.Rules()) != 0 {
		t.Fatal("rules survive a clear")
	}

	// Without an injector the surface does not exist.
	_, tsOff := newTestServer(t, Config{Streams: []StreamSpec{testSpec("q")}})
	if code, _ := get(t, tsOff.URL+"/v1/admin/fault"); code != http.StatusNotFound {
		t.Fatalf("fault endpoint without injector: %d, want 404", code)
	}
}
