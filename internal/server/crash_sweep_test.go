package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tdnstream"
	"tdnstream/internal/fault"
	"tdnstream/internal/wal"
)

// allOps are the operation classes the fault injector counts.
var allOps = []fault.Op{
	fault.OpOpen, fault.OpWrite, fault.OpSync, fault.OpRename, fault.OpRemove,
	fault.OpMkdir, fault.OpTruncate, fault.OpStat, fault.OpRead,
}

// TestCrashAtEveryIOOp runs a short scripted session — ingest, a
// checkpoint (snapshot, Sync, truncate), ingest, an admin restore,
// ingest — and crashes it before every filesystem operation in turn. A
// clean run counts the operations of each class; then, for every class
// and index i, a Crash rule fires before op i and its CrashFn fails
// every later operation, freezing the directory as a killed process
// leaves it. The session is abandoned and a fresh server booted over the
// directory must answer exactly as an uninterrupted run over the
// acknowledged requests, or over those plus the one in flight at the
// crash.
func TestCrashAtEveryIOOp(t *testing.T) {
	spec := testSpec("sweep")
	base := Config{
		Streams:         []StreamSpec{spec},
		MaxChunk:        1000,
		WALFsync:        wal.FsyncAlways,
		WALSegmentBytes: 256,
		RepairBackoff:   time.Millisecond,
		DisableAudit:    true,
	}

	// The restore donor: the same stream name, another history.
	donorSrv, err := New(Config{Streams: []StreamSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sweepIngest(donorSrv, walRows(80, 500)); err != nil {
		t.Fatal(err)
	}
	donor, err := donorSrv.Checkpoint(context.Background(), "sweep")
	donorSrv.Close()
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name string
		run  func(*Server) error
	}{
		{"ingest 1", func(s *Server) error { return sweepIngest(s, walRows(100, 1)) }},
		{"ingest 2", func(s *Server) error { return sweepIngest(s, walRows(100, 21)) }},
		{"checkpoint", func(s *Server) error { return s.CheckpointAll(context.Background()) }},
		{"ingest 3", func(s *Server) error { return sweepIngest(s, walRows(100, 41)) }},
		{"restore", func(s *Server) error { return sweepRestore(s, donor) }},
		{"ingest 4", func(s *Server) error { return sweepIngest(s, walRows(100, 601)) }},
	}

	// Clean run: the answer after every prefix of the script, and the
	// op counts the sweep walks.
	clean := fault.NewInjector(nil, 1)
	cfg := base
	cfg.WALDir, cfg.FS = t.TempDir(), clean
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers := []string{sweepAnswer(s)}
	for _, st := range steps {
		if err := st.run(s); err != nil {
			t.Fatalf("clean %s: %v", st.name, err)
		}
		answers = append(answers, sweepAnswer(s))
	}
	counts := clean.OpCounts()
	s.Close()

	runs := 0
	for _, op := range allOps {
		for i := uint64(0); i < counts[op]; i++ {
			label := fmt.Sprintf("crash before %s #%d", op, i)
			inj := fault.NewInjector(nil, 1)
			var crashed atomic.Bool
			inj.CrashFn = func() {
				crashed.Store(true)
				for _, o := range allOps {
					inj.Add(fault.Rule{Op: o, Err: syscall.EIO})
				}
			}
			inj.Add(fault.Rule{Op: op, After: i, Count: 1, Crash: true})
			cfg := base
			cfg.WALDir, cfg.FS = t.TempDir(), inj

			acked, inFlight := 0, false
			if s, err := New(cfg); err == nil {
				for _, st := range steps {
					if crashed.Load() {
						break
					}
					err := st.run(s)
					if crashed.Load() {
						inFlight = true
						break
					}
					if err != nil {
						t.Fatalf("%s: %s failed without a crash: %v", label, st.name, err)
					}
					acked++
				}
				s.Close() // the kill -9 stand-in: no snapshot, no I/O succeeds
			} else if !crashed.Load() {
				t.Fatalf("%s: boot failed without a crash: %v", label, err)
			}

			cfg.FS = nil
			r, err := New(cfg)
			if err != nil {
				t.Fatalf("%s (after %d acked): recovery boot: %v", label, acked, err)
			}
			got := sweepAnswer(r)
			r.Close()
			if got != answers[acked] && !(inFlight && got == answers[acked+1]) {
				want := answers[acked]
				if inFlight {
					want += "\n  or " + answers[acked+1]
				}
				t.Fatalf("%s (after %d acked, in flight %v): recovered\n     %s\nwant %s", label, acked, inFlight, got, want)
			}
			runs++
		}
	}
	if runs < 20 {
		t.Fatalf("swept only %d crash points: %v", runs, counts)
	}
	t.Logf("swept %d crash points: %v", runs, counts)
}

// sweepIngest posts rows to the sweep stream in one request (one chunk)
// and waits for the worker to account for them.
func sweepIngest(s *Server, rows []tdnstream.Interaction) error {
	var b strings.Builder
	for _, x := range rows {
		fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\",\"t\":%d}\n", x.Src, x.Dst, x.T)
	}
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest?stream=sweep", strings.NewReader(b.String()))
	req.Header.Set("Content-Type", ctNDJSON)
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		return fmt.Errorf("ingest: %d: %s", rr.Code, rr.Body)
	}
	return sweepSettle(s)
}

// sweepRestore posts a checkpoint body to /v1/admin/restore.
func sweepRestore(s *Server, body []byte) error {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/admin/restore", strings.NewReader(string(body)))
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		return fmt.Errorf("restore: %d: %s", rr.Code, rr.Body)
	}
	return sweepSettle(s)
}

// sweepSettle waits until every acknowledged record is accounted for
// and the worker has published the result.
func sweepSettle(s *Server) error {
	w, ok := s.stream("sweep")
	if !ok {
		return fmt.Errorf("stream gone")
	}
	deadline := time.Now().Add(10 * time.Second)
	for w.m.processed.Load()+w.m.staleDrop.Load()+w.m.failed.Load()+w.m.superseded.Load() < w.m.ingested.Load() ||
		w.queueDepth() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("records never settled")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// sweepAnswer renders the sweep stream's logical state: top-k and
// stream counters.
func sweepAnswer(s *Server) string {
	w, ok := s.stream("sweep")
	if !ok {
		return "no stream"
	}
	snap := w.snapshot()
	seeds := make([]string, len(snap.Solution.Seeds))
	for i, id := range snap.Solution.Seeds {
		seeds[i] = w.labels.name(id)
	}
	info := s.infoFor(w)
	return fmt.Sprintf("t=%d value=%d seeds=%v ingested=%d processed=%d stale=%d failed=%d superseded=%d steps=%d",
		snap.T, snap.Solution.Value, seeds, info.Ingested, info.Processed, info.StaleDropped,
		info.Failed, info.Superseded, info.Steps)
}
