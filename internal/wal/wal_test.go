package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"tdnstream/internal/ids"
	"tdnstream/internal/stream"
)

// collect replays the log from pos into a slice of payload copies.
func collect(t *testing.T, l *Log, pos Pos) ([]string, []Pos) {
	t.Helper()
	var payloads []string
	var ends []Pos
	if err := l.ReadFrom(pos, func(p []byte, end Pos) error {
		payloads = append(payloads, string(p))
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatalf("ReadFrom(%v): %v", pos, err)
	}
	return payloads, ends
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	var wantEnds []Pos
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("record-%03d", i)
		pos, tok, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(tok); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
		wantEnds = append(wantEnds, pos)
	}
	got, gotEnds := collect(t, l, Pos{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d records, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(gotEnds, wantEnds) {
		t.Fatalf("replay end positions do not match append positions")
	}
	// Resume from a mid-log watermark: exactly the suffix comes back.
	got, _ = collect(t, l, wantEnds[49])
	if !reflect.DeepEqual(got, want[50:]) {
		t.Fatalf("watermark resume: got %d records, want %d", len(got), 50)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, appends continue at the tail.
	l2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ = collect(t, l2, Pos{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen replay mismatch")
	}
	if _, _, err := l2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, l2, Pos{})
	if got[len(got)-1] != "after-reopen" {
		t.Fatalf("append after reopen missing from replay")
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~2 records rotate.
	l, err := Open(dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ends []Pos
	for i := 0; i < 20; i++ {
		pos, _, err := l.Append([]byte(fmt.Sprintf("rotating-record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, pos)
	}
	if end := l.End(); end.Seg < 3 {
		t.Fatalf("expected several segments, active is %d", end.Seg)
	}
	st := l.Stats()
	if st.Segments < 3 || st.Appends != 20 {
		t.Fatalf("stats: %+v", st)
	}

	// Truncate everything wholly covered by the 10th record's watermark.
	mark := ends[9]
	removed, err := l.TruncateBefore(mark)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatalf("expected truncation to remove segments (mark %v)", mark)
	}
	if start := l.Start(); start.Seg != mark.Seg {
		t.Fatalf("start %v, want segment %d", start, mark.Seg)
	}
	// The watermark's own segment survives, so replay from the mark is
	// exact; replay from genesis now reports truncated history.
	got, _ := collect(t, l, mark)
	if len(got) != 10 || got[0] != "rotating-record-010" {
		t.Fatalf("post-truncate replay from mark: %v", got)
	}
	if err := l.ReadFrom(Pos{}, func([]byte, Pos) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("replay before the truncation point: err = %v, want ErrTruncated", err)
	}
	if st := l.Stats(); st.Bytes <= 0 {
		t.Fatalf("bytes gauge after truncate: %+v", st)
	}
	// Truncating again at the same mark is a no-op.
	if removed, err := l.TruncateBefore(mark); err != nil || removed != 0 {
		t.Fatalf("idempotent truncate: removed %d, err %v", removed, err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	end := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-0000000000000000.wal")

	// A crash mid-write leaves a partial final frame: simulate by
	// appending a torn header + a few payload bytes.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, l2, Pos{})
	if len(got) != 5 {
		t.Fatalf("after torn tail: %d records, want 5", len(got))
	}
	if e := l2.End(); e != end {
		t.Fatalf("torn tail not truncated: end %v, want %v", e, end)
	}
	// The log is writable again and the new record follows cleanly.
	if _, _, err := l2.Append([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, l2, Pos{})
	if len(got) != 6 || got[5] != "post-crash" {
		t.Fatalf("append after torn-tail recovery: %v", got)
	}
	l2.Close()
}

func TestCorruptPayloadStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var ends []Pos
	for i := 0; i < 4; i++ {
		pos, _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, pos)
	}
	l.Close()
	seg := filepath.Join(dir, "seg-0000000000000000.wal")

	// Flip one byte inside the final record's payload: the CRC catches
	// it and replay stops at the last good boundary.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := collect(t, l2, Pos{})
	if len(got) != 3 {
		t.Fatalf("replay past a corrupt CRC: %d records, want 3", len(got))
	}
	if e := l2.End(); e != ends[2] {
		t.Fatalf("end after CRC truncation: %v, want %v", e, ends[2])
	}
}

func TestGroupCommitAlways(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, tok, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Commit(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*per {
		t.Fatalf("appends %d, want %d", st.Appends, writers*per)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs %d out of range (appends %d)", st.Fsyncs, st.Appends)
	}
	got, _ := collect(t, l, Pos{})
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
}

func TestRemoveDeletesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "stream")
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("directory survives Remove: %v", err)
	}
}

func TestFsyncIntervalAndNoneCommitImmediately(t *testing.T) {
	for _, policy := range []string{FsyncInterval, FsyncNone} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Fsync: policy, FsyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		_, tok, err := l.Append([]byte("quick"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(tok); err != nil {
			t.Fatalf("policy %s: commit: %v", policy, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("policy %s: close: %v", policy, err)
		}
	}
}

func TestBadFsyncPolicyRejected(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

func TestRecordCodecRoundtrip(t *testing.T) {
	rec := Record{
		DictBase: 7,
		Labels:   []string{"alice", "bob", "cañón", ""},
		Rows: []stream.Interaction{
			{Src: 0, Dst: 10, T: -5},
			{Src: 4_000_000_000, Dst: 3, T: 1 << 40},
			{Src: 8, Dst: 9, T: 0},
		},
	}
	buf := rec.AppendEncode(nil)
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	// Empty record.
	empty := Record{Rows: []stream.Interaction{}, Labels: []string{}}
	got, err = DecodeRecord(empty.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || len(got.Labels) != 0 {
		t.Fatalf("empty roundtrip: %+v", got)
	}
	// Truncations and garbage must error, never panic or over-allocate.
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeRecord(buf[:i]); err == nil {
			t.Fatalf("truncation at %d decoded without error", i)
		}
	}
	if _, err := DecodeRecord([]byte{recordKindChunk, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("absurd label count decoded without error")
	}
	if _, err := DecodeRecord([]byte{99}); err == nil {
		t.Fatal("unknown record kind decoded without error")
	}
	_ = ids.NodeID(0) // keep the import honest about what Rows carry
}

func TestSnapshotCodecRoundtrip(t *testing.T) {
	covers := Pos{Seg: 3, Off: 1 << 40}
	envelope := []byte("gob envelope bytes")
	buf := AppendEncodeSnapshot([]byte("prefix"), covers, envelope)[len("prefix"):]
	if k, err := PayloadKind(buf); err != nil || k != KindSnapshot {
		t.Fatalf("kind = %v, %v; want KindSnapshot", k, err)
	}
	gotCovers, gotEnv, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotCovers != covers || string(gotEnv) != string(envelope) {
		t.Fatalf("roundtrip: got %v %q, want %v %q", gotCovers, gotEnv, covers, envelope)
	}
	// A chunk is not a snapshot, and a truncated position is an error.
	if _, _, err := DecodeSnapshot((&Record{}).AppendEncode(nil)); err == nil {
		t.Fatal("chunk decoded as a snapshot")
	}
	for i := 0; i < 3; i++ {
		if _, _, err := DecodeSnapshot(buf[:i]); err == nil {
			t.Fatalf("truncation at %d decoded without error", i)
		}
	}
	// Offsets past int64 are refused rather than wrapped negative.
	huge := []byte{byte(KindSnapshot), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, _, err := DecodeSnapshot(huge); err == nil {
		t.Fatal("out-of-range offset decoded without error")
	}
}
