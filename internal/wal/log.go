package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tdnstream/internal/fault"
)

// ErrFenced reports a Commit for a token Repair fenced off: the fault
// hit while the append's durability was in flight, so it can never be
// proven. Unlike a live fault, a fenced Commit does not mean the log is
// still broken — Repair already rotated past the damage; the caller's
// record is simply ack-ambiguous and must be retried as a new append.
var ErrFenced = errors.New("wal: durability unproven at repair")

const (
	lockName  = "lock"
	segPrefix = "seg-"
	segSuffix = ".wal"
)

// Log is one stream's write-ahead log: an append-only sequence of
// CRC-framed records across rotated segment files. Append/Commit are
// safe for concurrent use; ReadFrom is meant for recovery (before
// appends start) and tests.
type Log struct {
	dir  string
	opts Options
	fs   fault.FS

	mu       sync.Mutex // file state: active handle, offsets, rotation, truncation
	firstSeg uint64
	seg      uint64 // active segment index
	segSize  int64  // bytes in the active segment
	bytes    int64  // bytes across all live segments
	f        fault.File
	appends  uint64 // frames appended (the Token sequence)
	scratch  []byte // frame assembly buffer, reused under mu
	// writeErr is the sticky append poison: once a write(2) fails, the
	// active segment may carry a torn tail past segSize, and appending
	// after it would bury that garbage mid-segment — where replay must
	// treat it as fatal corruption, not a crash tail. Appends refuse
	// until Repair truncates the tear and rotates to a fresh segment.
	writeErr error
	// retiring holds rotated-away segment handles awaiting their final
	// fsync+close by the next sync leader — rotation itself must not
	// fsync under mu, or every append would stall behind the disk.
	retiring []fault.File

	sm      sync.Mutex // group-commit state
	cond    *sync.Cond
	synced  uint64 // appends proven durable
	syncing bool   // a leader fsync is in flight
	syncErr error  // sticky: a failed fsync poisons durability claims
	fsyncs  uint64
	// fsyncNanos is cumulative wall time inside leader fsync rounds —
	// pure device time, no queue wait. Against the per-request commit
	// latency histogram it separates "the disk is slow" from "the
	// commit queue is deep".
	fsyncNanos uint64
	// fence marks the durability hole a Repair leaves behind: tokens at
	// or below it sat in a poisoned handle when the log was abandoned
	// mid-fault, so their durability can never be proven. Commit answers
	// fenceErr for them — conservatively even for tokens that were
	// synced before the fault, because the scalar synced frontier cannot
	// represent a hole. No caller re-commits an acked token, so the
	// conservatism costs nothing in practice.
	fence    uint64
	fenceErr error

	stop chan struct{} // interval-fsync goroutine shutdown
	done chan struct{}

	// lockf holds the directory's exclusive advisory lock for the
	// Log's lifetime (nil on platforms without flock). Released by
	// Close — or by the kernel when the process dies, which is the
	// point: a crashed owner never blocks its own recovery.
	lockf *os.File
}

// Open opens (or creates) the log in dir. An existing log is validated:
// the final segment is scanned frame by frame and a torn tail — the
// partial frame a crash mid-write leaves — is truncated away, so the
// log always reopens at a frame boundary.
func Open(dir string, opts Options) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.cond = sync.NewCond(&l.sm)
	if l.lockf, err = lockDir(dir); err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			l.unlock()
		}
	}()
	segs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		l.firstSeg, l.seg = 0, 0
		if err := l.openActive(os.O_CREATE); err != nil {
			return nil, err
		}
	} else {
		l.firstSeg, l.seg = segs[0], segs[len(segs)-1]
		for _, s := range segs[:len(segs)-1] {
			fi, err := l.fs.Stat(l.segPath(s))
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.bytes += fi.Size()
		}
		// Scan the last segment — the only place a crash can tear a
		// frame — and drop the torn tail, if any.
		valid, _, err := scanSegment(l.fs, l.segPath(l.seg), 0, nil)
		if err != nil {
			return nil, err
		}
		if err := l.fs.Truncate(l.segPath(l.seg), valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := l.openActive(0); err != nil {
			return nil, err
		}
	}
	if l.opts.Fsync == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	opened = true
	return l, nil
}

// unlock releases the directory lock (idempotent).
func (l *Log) unlock() {
	if l.lockf != nil {
		l.lockf.Close()
		l.lockf = nil
	}
}

// openActive opens the active segment for appending and accounts its
// size. Called from Open only, which has the log to itself.
func (l *Log) openActive(create int) error {
	f, err := l.fs.OpenFile(l.segPath(l.seg), os.O_WRONLY|os.O_APPEND|create, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segSize = fi.Size()
	l.bytes += fi.Size()
	return nil
}

func (l *Log) segPath(seg uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, seg, segSuffix))
}

// listSegments returns the live segment indices, sorted.
func (l *Log) listSegments() ([]uint64, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, n)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, fmt.Errorf("wal: segment gap: %d then %d (directory tampered?)", segs[i-1], segs[i])
		}
	}
	return segs, nil
}

// Start returns the earliest retained position (the start of the oldest
// live segment). After truncation this moves forward; a log whose
// start is not genesis needs a snapshot to replay from.
func (l *Log) Start() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seg: l.firstSeg}
}

// End returns the append position: where the next frame will land.
func (l *Log) End() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seg: l.seg, Off: l.segSize}
}

// Append writes one record frame, rotating segments as needed, and
// returns the position *after* the frame (the watermark that covers it)
// plus the Token to Commit. The write(2) is issued before Append
// returns — no user-space buffering — so the record survives process
// death immediately; Commit adds the fsync the policy calls for.
//
// A failed write poisons the log: the active segment may end in a torn
// frame, so further appends are refused (with the original error) until
// Repair rotates past the damage. Commits fail alongside — no record is
// acknowledged whose durability the log cannot vouch for.
func (l *Log) Append(payload []byte) (Pos, Token, error) {
	if len(payload) > maxFrameBytes {
		return Pos{}, 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame bound", len(payload), maxFrameBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return Pos{}, 0, errors.New("wal: log closed")
	}
	if l.writeErr != nil {
		return Pos{}, 0, l.writeErr
	}
	if l.segSize >= l.opts.SegmentBytes && l.segSize > 0 {
		if err := l.rotateLocked(); err != nil {
			return Pos{}, 0, err
		}
	}
	need := frameHeaderSize + len(payload)
	frame := l.scratch
	switch {
	case need > maxScratchBytes:
		// A snapshot frame is the size of the whole stream state; keeping
		// its buffer would pin that much memory for the log's lifetime.
		frame = make([]byte, 0, need)
	case cap(frame) < need:
		frame = make([]byte, 0, need+need/2)
		l.scratch = frame
	}
	frame = frame[:frameHeaderSize]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if _, err := l.f.Write(frame); err != nil {
		// A short write leaves a torn tail exactly like a crash would.
		// Poison both paths: appends (the bytes past segSize are
		// unknown) and durability claims.
		l.writeErr = fmt.Errorf("wal: append: %w", err)
		l.mutateSync(func() {
			if l.syncErr == nil {
				l.syncErr = l.writeErr
			}
		})
		return Pos{}, 0, l.writeErr
	}
	l.segSize += int64(len(frame))
	l.bytes += int64(len(frame))
	l.appends++
	return Pos{Seg: l.seg, Off: l.segSize}, Token(l.appends), nil
}

// rotateLocked finishes the active segment and starts the next. The
// next segment is opened *first*: if that fails (ENOSPC, EMFILE), the
// log state is untouched — the active segment simply grows past
// SegmentBytes and the rotation retries on a later append, rather than
// wedging the log on a half-finished switch or leaving a numbering gap
// that would refuse the next boot. The old handle is not fsynced here —
// that would stall every concurrent append behind the disk — but parked
// on the retiring list for the next sync leader, which fsyncs and
// closes it outside mu before claiming any sequence number it holds.
// (Under FsyncNone nothing ever fsyncs, so the handle closes
// immediately.)
func (l *Log) rotateLocked() error {
	next, err := l.fs.OpenFile(l.segPath(l.seg+1), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if l.opts.Fsync == FsyncNone {
		l.f.Close() // best-effort: under none, durability is the OS's schedule anyway
	} else {
		l.retiring = append(l.retiring, l.f)
	}
	l.seg++
	l.f = next
	l.segSize = 0
	return nil
}

// Commit returns once the append identified by t is durable per the
// fsync policy: immediately for FsyncNone and FsyncInterval (the
// background loop carries those), after an fsync for FsyncAlways.
// Concurrent FsyncAlways committers share fsyncs — one leader syncs for
// every append that landed before it, the group-commit batching that
// keeps per-request durability affordable.
func (l *Log) Commit(t Token) error {
	seq := uint64(t)
	if l.opts.Fsync != FsyncAlways {
		l.sm.Lock()
		defer l.sm.Unlock()
		if l.syncErr != nil {
			return l.syncErr
		}
		if seq <= l.fence {
			return l.fenceErr
		}
		return nil
	}
	err := l.syncThrough(seq)
	// The fence is checked here, after the wait, not in syncThrough:
	// Sync right after Repair must succeed (it is the repair's
	// durability probe), yet a committer parked since before the Repair
	// can lead the first round after it, fsync only the fresh segment
	// and see synced ≥ seq for a record the abandoned handle may never
	// have written back.
	l.sm.Lock()
	defer l.sm.Unlock()
	if seq <= l.fence {
		return l.fenceErr
	}
	if err != nil {
		return err
	}
	return l.syncErr
}

// Sync fsyncs every frame appended so far, whatever the fsync policy:
// a checkpoint calls it before truncating the segments its snapshot
// covers, so that a power loss cannot take the snapshot after the
// history it replaces is gone. Under FsyncNone a rotated-away segment
// is closed without an fsync, so only the active segment is synced
// there; callers that need their frame synced keep other appends out
// between their Append and Sync.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.appends
	l.mu.Unlock()
	return l.syncThrough(target)
}

// mutateSync applies fn to the group-commit state under sm and wakes
// every parked committer. Callers may hold mu; never sm.
func (l *Log) mutateSync(fn func()) {
	l.sm.Lock()
	defer l.sm.Unlock()
	fn()
	l.cond.Broadcast()
}

// syncThrough blocks until appends ≤ seq are fsynced, electing one
// waiter as the fsync leader per round.
func (l *Log) syncThrough(seq uint64) error {
	l.sm.Lock()
	defer l.sm.Unlock()
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.synced >= seq {
			return nil
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		l.sm.Unlock()
		// Leader round. Capture the frontier under mu, then do the
		// disk work with NO lock held: concurrent appends keep flowing
		// into the active file while the leader fsyncs — the write
		// path never waits on the disk, only committers do. Every
		// frame ≤ target lives either in a retiring handle (synced and
		// closed here) or in the captured active handle (synced here);
		// frames appended after the capture may get synced early,
		// which is harmless — the leader only *claims* target.
		l.mu.Lock()
		target := l.appends
		cur := l.f
		retiring := l.retiring
		l.retiring = nil
		l.mu.Unlock()
		if seq > target {
			seq = target
		}
		var err error
		syncs := uint64(0)
		syncStart := time.Now()
		for _, f := range retiring {
			if e := f.Sync(); e != nil && err == nil {
				err = e
			}
			syncs++
			f.Close()
		}
		if cur == nil {
			if err == nil {
				err = errors.New("wal: log closed")
			}
		} else {
			syncs++
			if e := cur.Sync(); e != nil && err == nil {
				err = e
			}
		}
		syncD := time.Since(syncStart)
		l.sm.Lock()
		l.syncing = false
		l.fsyncs += syncs
		l.fsyncNanos += uint64(syncD.Nanoseconds())
		if err != nil {
			if l.syncErr == nil {
				l.syncErr = fmt.Errorf("wal: fsync: %w", err)
			}
		} else if target > l.synced {
			l.synced = target
		}
		l.cond.Broadcast()
	}
}

// syncLoop is the FsyncInterval background writer.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			pending := l.f != nil && l.appends > 0
			target := l.appends
			l.mu.Unlock()
			l.sm.Lock()
			pending = pending && l.synced < target && l.syncErr == nil
			l.sm.Unlock()
			if pending {
				_ = l.syncThrough(target)
			}
		}
	}
}

// Repair fences off a poisoned log and makes it writable again. It is
// the only recovery from a failed write or fsync, built on fsyncgate
// semantics: after an fsync error the kernel may already have dropped
// the dirty pages and marked them clean, so re-fsyncing the same file
// descriptor could report success for data that never reached the
// platter. The poisoned handle (and any retiring handles awaiting their
// final fsync) are therefore closed WITHOUT another fsync, a torn tail
// from a failed append is truncated back to the last frame boundary
// (segments must only end torn, never carry garbage mid-file), and the
// log rotates to a freshly created segment.
//
// Tokens whose durability was in flight when the fault hit are fenced:
// their Commit fails permanently with the original error, so no caller
// can extract an ack for a record the disk may not hold. Tokens
// appended after a successful Repair prove durability through the new
// handle as usual.
//
// If the fault persists (the rotation or truncation itself fails — the
// disk is still full), Repair returns the error and leaves the log
// poisoned; callers retry with backoff. Repair of a log that is not
// poisoned is a no-op: its active handle is healthy, so the next Sync
// proves durability through it.
func (l *Log) Repair() error {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if l.writeErr == nil {
		l.sm.Lock() // mu before sm: the log's lock order
		healthy := l.syncErr == nil
		l.sm.Unlock()
		if healthy {
			// Rotating would close the active handle without an fsync
			// and fence nothing, so a later round could ack its frames.
			l.mu.Unlock()
			return nil
		}
	} else {
		// Cut the torn frame so the abandoned segment ends at a frame
		// boundary: replay treats mid-log corruption as fatal (records
		// provably exist beyond it), and rotation is about to make this
		// segment mid-log.
		if err := l.fs.Truncate(l.segPath(l.seg), l.segSize); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("wal: repair truncate: %w", err)
		}
	}
	next, err := l.fs.OpenFile(l.segPath(l.seg+1), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: repair: %w", err)
	}
	old := l.f
	retiring := l.retiring
	l.retiring = nil
	l.seg++
	l.f = next
	l.segSize = 0
	l.writeErr = nil
	fence := l.appends
	l.mu.Unlock()
	// Close, never fsync: these handles are the poisoned ones.
	old.Close()
	for _, f := range retiring {
		f.Close()
	}
	l.mutateSync(func() {
		if l.syncErr != nil {
			if fence > l.fence {
				l.fence = fence
				l.fenceErr = fmt.Errorf("%w: %w", ErrFenced, l.syncErr)
			}
			l.syncErr = nil
		}
	})
	return nil
}

// ReadFrom replays record payloads starting at the frame boundary pos,
// calling fn with each payload and the position *after* its frame (what
// a snapshot taken after applying it covers). The payload slice
// is reused between calls — fn must not retain it. A torn or corrupt
// frame in the final segment ends the replay cleanly (that is the
// crash tail); corruption in an earlier segment is an error, because
// records provably exist beyond it and skipping them would replay a
// gapped history as if it were complete. Positions before Start()
// return ErrTruncated.
func (l *Log) ReadFrom(pos Pos, fn func(payload []byte, end Pos) error) error {
	l.mu.Lock()
	first, last, end := l.firstSeg, l.seg, Pos{Seg: l.seg, Off: l.segSize}
	l.mu.Unlock()
	if pos.Seg < first {
		return fmt.Errorf("%w (want %v, earliest %v)", ErrTruncated, pos, Pos{Seg: first})
	}
	if pos.Seg > last {
		return fmt.Errorf("wal: position %v beyond the last segment %d", pos, last)
	}
	if pos == end {
		return nil // nothing appended past pos (a fresh log, an empty tail)
	}
	for seg := pos.Seg; seg <= last; seg++ {
		skip := int64(0)
		if seg == pos.Seg {
			skip = pos.Off
		}
		valid, clean, err := scanSegment(l.fs, l.segPath(seg), skip, fn)
		if err != nil {
			return err
		}
		if !clean {
			if seg != last {
				return fmt.Errorf("wal: corrupt frame in segment %d at offset %d with later segments present", seg, valid)
			}
			return nil // torn crash tail: replay ends here, by design
		}
	}
	return nil
}

// scanSegment walks one segment's frames, calling fn (when non-nil) for
// frames that end after skip. It returns the offset of the last valid
// frame boundary and whether the segment scanned clean to EOF.
func scanSegment(fsys fault.FS, path string, skip int64, fn func(payload []byte, end Pos) error) (valid int64, clean bool, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	seg, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), segPrefix), segSuffix), 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("wal: bad segment name %q", path)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var (
		off int64
		hdr [frameHeaderSize]byte
		buf []byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF exactly at a boundary is a clean end; anything else
			// (short header) is a torn tail.
			return off, errors.Is(err, io.EOF), nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrameBytes {
			return off, false, nil // corrupt length: treat as torn
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return off, false, nil // short payload: torn tail
		}
		if crc32.Checksum(buf, castagnoli) != sum {
			return off, false, nil // bit rot or torn rewrite: stop here
		}
		off += frameHeaderSize + int64(n)
		if fn != nil && off > skip {
			if err := fn(buf, Pos{Seg: seg, Off: off}); err != nil {
				return off, false, err
			}
		}
	}
}

// TruncateBefore removes segments wholly covered by the watermark pos:
// every segment with an index below pos.Seg. The segment holding pos
// stays (it may carry frames past the watermark), as does the active
// segment. Returns how many segments were removed. Callers invoke this
// only after the snapshot covering pos was appended and synced — a
// failed checkpoint must never advance the truncation point.
func (l *Log) TruncateBefore(pos Pos) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for l.firstSeg < pos.Seg && l.firstSeg < l.seg {
		path := l.segPath(l.firstSeg)
		fi, err := l.fs.Stat(path)
		if errors.Is(err, os.ErrNotExist) {
			// Already gone (removed out from under the log): nothing
			// left to protect.
			l.firstSeg++
			continue
		}
		if err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		if err := l.fs.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		l.bytes -= fi.Size()
		l.firstSeg++
		removed++
	}
	return removed, nil
}

// Close flushes (a final fsync unless the policy is none), stops the
// background sync loop, and closes the active segment. The log must not
// be used afterwards.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	var syncErr error
	if l.opts.Fsync != FsyncNone {
		syncErr = l.Sync()
	}
	l.mu.Lock()
	var closeErr error
	if l.f != nil {
		closeErr = l.f.Close()
		l.f = nil
	}
	// A poisoned sync leaves retiring handles unconsumed; release them.
	for _, f := range l.retiring {
		f.Close()
	}
	l.retiring = nil
	l.unlock()
	l.mu.Unlock()
	l.mutateSync(func() {})
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Remove closes the log and deletes its directory — the end of the
// stream's life (DELETE /v1/streams/{name}), not a restart. A stream
// re-created under the same name must start with no history, or the
// replay would resurrect the deleted stream's records.
func (l *Log) Remove() error {
	closeErr := l.Close()
	if err := l.fs.RemoveAll(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return closeErr
}

// Stats snapshots the log's counters for /metrics.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := int(l.seg-l.firstSeg) + 1
	bytes := l.bytes
	appends := l.appends
	l.mu.Unlock()
	l.sm.Lock()
	fsyncs := l.fsyncs
	fsyncNanos := l.fsyncNanos
	l.sm.Unlock()
	return Stats{Segments: segs, Bytes: bytes, Appends: appends,
		Fsyncs: fsyncs, FsyncNanos: fsyncNanos}
}
