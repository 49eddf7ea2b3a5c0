package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"

	"tdnstream/internal/fault"
)

// replayAll reopens dir with a clean filesystem and returns every
// replayed payload in order.
func replayAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var out [][]byte
	err = l.ReadFrom(l.Start(), func(p []byte, _ Pos) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func payloadFor(i int) []byte {
	// 24 bytes, distinct per index: frame = 32 bytes.
	return []byte(fmt.Sprintf("record-%05d-%010d", i, i*i))
}

// TestTornWriteEveryFrameBoundary tears the log at every frame of a
// 100-record history — a short write of 1..31 bytes into the i-th
// frame — and proves replay recovers exactly the i records before the
// tear, byte-identical, with the garbage truncated away.
func TestTornWriteEveryFrameBoundary(t *testing.T) {
	const records = 100
	for i := 0; i < records; i++ {
		shortBy := i%31 + 1 // frames are 32 bytes; tear at every offset depth over the sweep
		dir := t.TempDir()
		inj := fault.NewInjector(nil, 1)
		inj.Add(fault.Rule{Op: fault.OpWrite, Path: "seg-", After: uint64(i), Count: 1, ShortBy: shortBy})
		l, err := Open(dir, Options{Fsync: FsyncNone, FS: inj})
		if err != nil {
			t.Fatalf("i=%d open: %v", i, err)
		}
		sawErr := false
		for j := 0; j < records; j++ {
			_, _, err := l.Append(payloadFor(j))
			if err != nil {
				sawErr = true
				if j < i {
					t.Fatalf("i=%d: append %d failed before the scheduled tear: %v", i, j, err)
				}
			} else if j >= i {
				t.Fatalf("i=%d: append %d succeeded past the tear (poison not sticky)", i, j)
			}
		}
		if !sawErr {
			t.Fatalf("i=%d: tear never fired", i)
		}
		l.Close() // error expected under poison; replay is the oracle
		got := replayAll(t, dir)
		if len(got) != i {
			t.Fatalf("i=%d: replayed %d records, want %d", i, len(got), i)
		}
		for j, p := range got {
			if string(p) != string(payloadFor(j)) {
				t.Fatalf("i=%d: record %d corrupted: %q", i, j, p)
			}
		}
	}
}

// TestRotationUnderENOSPC fails segment creation with ENOSPC and
// verifies the log neither wedges nor gaps: appends that hit the failed
// rotation error out cleanly, the log state is untouched, and once
// space returns the rotation succeeds and every acknowledged append
// replays in order.
func TestRotationUnderENOSPC(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 1)
	// Fires on segment creations after the initial seg-0 open: the
	// first two rotations fail.
	inj.Add(fault.Rule{Op: fault.OpOpen, Path: "seg-", After: 1, Count: 2, Err: syscall.ENOSPC})
	l, err := Open(dir, Options{Fsync: FsyncNone, FS: inj, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	failures := 0
	for i := 0; i < 20; i++ {
		p := payloadFor(i)
		if _, _, err := l.Append(p); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d: %v, want ENOSPC", i, err)
			}
			failures++
			continue
		}
		acked = append(acked, p)
	}
	if failures != 2 {
		t.Fatalf("%d rotation failures, want 2", failures)
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("no rotation ever succeeded: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := replayAll(t, dir)
	if len(got) != len(acked) {
		t.Fatalf("replayed %d records, want %d", len(got), len(acked))
	}
	for i := range got {
		if string(got[i]) != string(acked[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestFsyncEIONeverAcksLostRecord hammers an FsyncAlways log from many
// goroutines while fsync starts failing, then proves the core promise:
// every record whose Commit returned nil is present after replay.
func TestFsyncEIONeverAcksLostRecord(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 1)
	inj.Add(fault.Rule{Op: fault.OpSync, After: 3, Err: syscall.EIO})
	l, err := Open(dir, Options{Fsync: FsyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 16, 20
	var mu sync.Mutex
	acked := map[string]bool{}
	failed := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := []byte(fmt.Sprintf("w%02d-r%03d", w, i))
				_, tok, err := l.Append(p)
				if err != nil {
					continue
				}
				err = l.Commit(tok)
				mu.Lock()
				if err == nil {
					acked[string(p)] = true
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if failed == 0 {
		t.Fatal("EIO rule never failed a commit")
	}
	l.Close()
	replayed := map[string]bool{}
	for _, p := range replayAll(t, dir) {
		replayed[string(p)] = true
	}
	for p := range acked {
		if !replayed[p] {
			t.Fatalf("record %q was acked by Commit but lost on replay", p)
		}
	}
}

// TestCommitThroughRepairs runs concurrent committers through random
// fsync faults and the repairs that heal them, on a log small enough to
// rotate: whatever interleaving of leader rounds, poison, fencing and
// rotation the schedule produces, every record whose Commit returned
// nil replays.
func TestCommitThroughRepairs(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 7)
	inj.Add(fault.Rule{Op: fault.OpSync, Path: "seg-", Prob: 0.2, Err: syscall.EIO})
	l, err := Open(dir, Options{Fsync: FsyncAlways, FS: inj, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	faulted := make(chan struct{}, 1)
	stop := make(chan struct{})
	repaired := make(chan int)
	go func() {
		repairs := 0
		for {
			select {
			case <-stop:
				repaired <- repairs
				return
			case <-faulted:
				if l.Repair() == nil {
					repairs++
				}
			}
		}
	}()
	const workers, per = 16, 40
	var mu sync.Mutex
	acked := map[string]bool{}
	failed := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := []byte(fmt.Sprintf("w%02d-r%03d", w, i))
				_, tok, err := l.Append(p)
				if err == nil {
					err = l.Commit(tok)
				}
				mu.Lock()
				if err == nil {
					acked[string(p)] = true
				} else {
					failed++
				}
				mu.Unlock()
				if err != nil {
					select {
					case faulted <- struct{}{}:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	repairs := <-repaired
	if failed == 0 || repairs == 0 || len(acked) == 0 {
		t.Fatalf("schedule too tame: %d failed commits, %d repairs, %d acks", failed, repairs, len(acked))
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("log never rotated: %+v", st)
	}
	inj.Clear()
	l.Close() // may report the sticky fault; replay is the oracle
	replayed := map[string]bool{}
	for _, p := range replayAll(t, dir) {
		replayed[string(p)] = true
	}
	for p := range acked {
		if !replayed[p] {
			t.Fatalf("record %q was acked by Commit but lost on replay", p)
		}
	}
}

// TestRepairAfterFsyncEIO drives the full degradation arc: a failed
// fsync poisons the log, Repair rotates past the poisoned handle, new
// appends commit cleanly, and the fenced tokens keep failing — no
// late Commit can extract an ack the disk may not honor.
func TestRepairAfterFsyncEIO(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 1)
	l, err := Open(dir, Options{Fsync: FsyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy append.
	if _, tok, err := l.Append(payloadFor(0)); err != nil || l.Commit(tok) != nil {
		t.Fatalf("healthy commit failed: %v", err)
	}
	// Poison: one EIO on the next fsync.
	inj.Add(fault.Rule{Op: fault.OpSync, Count: 1, Err: syscall.EIO})
	_, tokBad, err := l.Append(payloadFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(tokBad); !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit after EIO = %v, want EIO", err)
	}
	// Sticky: the next commit fails without touching the disk.
	_, tok2, err := l.Append(payloadFor(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(tok2); err == nil {
		t.Fatal("poisoned log acked a commit")
	}
	if err := l.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	// Fenced tokens still fail — their durability is unprovable.
	if err := l.Commit(tokBad); err == nil {
		t.Fatal("fenced token committed after repair")
	}
	// New appends prove durability through the fresh handle.
	_, tok3, err := l.Append(payloadFor(3))
	if err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := l.Commit(tok3); err != nil {
		t.Fatalf("commit after repair: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after repair: %v", err)
	}
	got := replayAll(t, dir)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
}

// TestRepairAfterTornWrite proves Repair truncates a torn frame before
// rotating, so the abandoned segment never carries mid-log garbage.
func TestRepairAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 1)
	inj.Add(fault.Rule{Op: fault.OpWrite, Path: "seg-", After: 2, Count: 1, ShortBy: 5})
	l, err := Open(dir, Options{Fsync: FsyncNone, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, _, err := l.Append(payloadFor(2)); err == nil {
		t.Fatal("torn append reported success")
	}
	// Sticky until repaired.
	if _, _, err := l.Append(payloadFor(3)); err == nil {
		t.Fatal("append after tear succeeded without repair")
	}
	if err := l.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	for i := 3; i < 6; i++ {
		if _, _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatalf("append %d after repair: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Replay must cross the abandoned segment cleanly: records 0,1 then
	// 3,4,5. Mid-log corruption would error here.
	got := replayAll(t, dir)
	want := []int{0, 1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, idx := range want {
		if string(got[i]) != string(payloadFor(idx)) {
			t.Fatalf("record %d = %q, want payload %d", i, got[i], idx)
		}
	}
}

// TestRepairWhileFaultPersists: Repair itself fails while the disk is
// still sick, leaves the log poisoned, and succeeds once the fault
// clears.
func TestRepairWhileFaultPersists(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(nil, 1)
	l, err := Open(dir, Options{Fsync: FsyncNone, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	tear := inj.Add(fault.Rule{Op: fault.OpWrite, Path: "seg-", ShortBy: 3})
	full := inj.Add(fault.Rule{Op: fault.OpOpen, Path: "seg-", Err: syscall.ENOSPC})
	if _, _, err := l.Append(payloadFor(0)); err == nil {
		t.Fatal("append during fault succeeded")
	}
	if err := l.Repair(); err == nil {
		t.Fatal("repair succeeded while segment creation still fails")
	}
	if _, _, err := l.Append(payloadFor(0)); err == nil {
		t.Fatal("failed repair cleared the poison")
	}
	inj.Drop(tear)
	inj.Drop(full)
	if err := l.Repair(); err != nil {
		t.Fatalf("repair after fault cleared: %v", err)
	}
	if _, _, err := l.Append(payloadFor(1)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := replayAll(t, dir); len(got) != 1 || string(got[0]) != string(payloadFor(1)) {
		t.Fatalf("replay mismatch: %d records", len(got))
	}
}

// powerLossFS is a fault.FS seam that simulates a power loss: it
// records each file's length at its last successful Sync, and cut
// truncates every file back to that length — what the disk holds once
// the page cache is gone. A file that existed before it was first
// opened counts as durable at its length then.
type powerLossFS struct {
	fault.FS
	mu     sync.Mutex
	synced map[string]int64
}

func newPowerLossFS(base fault.FS) *powerLossFS {
	return &powerLossFS{FS: base, synced: make(map[string]int64)}
}

func (p *powerLossFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	var size int64
	if fi, err := p.FS.Stat(name); err == nil {
		size = fi.Size()
	}
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if _, ok := p.synced[name]; !ok {
		p.synced[name] = size
	}
	p.mu.Unlock()
	return &powerLossFile{File: f, fs: p, name: name}, nil
}

func (p *powerLossFS) Truncate(name string, size int64) error {
	if err := p.FS.Truncate(name, size); err != nil {
		return err
	}
	p.mu.Lock()
	if n, ok := p.synced[name]; ok && size < n {
		p.synced[name] = size
	}
	p.mu.Unlock()
	return nil
}

// cut truncates every file opened through p to its synced length.
func (p *powerLossFS) cut(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, n := range p.synced {
		if err := p.FS.Truncate(name, n); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("power loss: %v", err)
		}
	}
}

type powerLossFile struct {
	fault.File
	fs   *powerLossFS
	name string
}

// Sync records the length from before the fsync: bytes a concurrent
// Write adds during it are not proven durable.
func (f *powerLossFile) Sync() error {
	fi, err := f.File.Stat()
	if err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if fi.Size() > f.fs.synced[f.name] {
		f.fs.synced[f.name] = fi.Size()
	}
	f.fs.mu.Unlock()
	return nil
}

// TestRepairHealthyLogPowerLoss: a Repair of a log with no sticky error
// (a stale degrade's repair loop) must not cost durability. Every
// record Commit acked after it survives a power loss.
func TestRepairHealthyLogPowerLoss(t *testing.T) {
	dir := t.TempDir()
	pfs := newPowerLossFS(fault.OS())
	l, err := Open(dir, Options{Fsync: FsyncAlways, FS: pfs})
	if err != nil {
		t.Fatal(err)
	}
	_, tok0, err := l.Append(payloadFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Repair(); err != nil {
		t.Fatalf("repair of a healthy log: %v", err)
	}
	if err := l.Commit(tok0); err != nil {
		t.Fatalf("commit 0: %v", err)
	}
	_, tok1, err := l.Append(payloadFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(tok1); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	pfs.cut(t)
	l.Close()
	got := replayAll(t, dir)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after a power loss, want both acked records", len(got))
	}
	for i, p := range got {
		if string(p) != string(payloadFor(i)) {
			t.Fatalf("record %d = %q, want payload %d", i, p, i)
		}
	}
}

// TestCommitShardsConcurrent drives the group-commit queue from many
// goroutines: every commit must succeed, the log must issue no more
// fsyncs than appends, and every record must replay. The log has one
// commit queue; the subtest keeps the name of that single-shard case.
func TestCommitShardsConcurrent(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		const workers, per = 8, 25
		var wg sync.WaitGroup
		errs := make(chan error, workers*per)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					_, tok, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
					if err != nil {
						errs <- err
						return
					}
					if err := l.Commit(tok); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("commit: %v", err)
		}
		st := l.Stats()
		if st.Appends != workers*per {
			t.Fatalf("%d appends, want %d", st.Appends, workers*per)
		}
		if st.Fsyncs == 0 || st.Fsyncs > st.Appends {
			t.Fatalf("fsyncs=%d outside (0, %d]: group commit broken?", st.Fsyncs, st.Appends)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir); len(got) != workers*per {
			t.Fatalf("replayed %d, want %d", len(got), workers*per)
		}
	})
}
