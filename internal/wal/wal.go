// Package wal is the per-stream write-ahead log behind influtrackd's
// exact crash recovery: a segmented, CRC32C-framed append log of
// post-intern ingest chunks, written *before* the serving layer
// acknowledges a record with 200 OK, and of the snapshots that let
// recovery skip the history before them.
//
// The stream is a recoverable sequence of edge updates (the framing of
// Yang et al., arXiv:1602.04490), so one log holds everything durable
// about it. A checkpoint appends a snapshot frame — the full stream
// state plus the position it covers — and then deletes the segments
// before that position; recovery loads the newest snapshot and replays
// the chunks from its covered position on, reconstructing the exact
// pre-crash tracker state. A log without a snapshot replays from
// genesis.
//
// # Layout
//
// A Log owns one directory of monotonically numbered segment files
// `seg-%016d.wal` (plus a `lock` file). Each segment is a sequence of
// frames:
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// little-endian, CRC32 with the Castagnoli polynomial. Frames never
// span segments. A torn final frame (short header, short payload, or
// CRC mismatch — what a crash mid-write leaves behind) is detected on
// open and truncated away; everything before it is intact by
// construction, because frames are appended with a single write. A
// payload's first byte is its Kind: KindChunk (Record) or KindSnapshot
// (AppendEncodeSnapshot).
//
// # Durability model
//
// Append issues the write(2) immediately — frames are never buffered in
// user space — so an appended record survives process death (kill -9)
// under every fsync policy: the page cache belongs to the kernel, not
// the process. The fsync policy only decides when data reaches the
// *disk*, i.e. what a machine crash or power loss can take:
//
//   - FsyncAlways: Commit fsyncs before returning (batched — concurrent
//     committers share one fsync, classic group commit). 200 OK then
//     means "on disk".
//   - FsyncInterval (default): a background goroutine fsyncs every
//     FsyncEvery. 200 OK means "will be on disk within the interval";
//     power loss can cost up to one interval of acknowledged records,
//     process crashes cost nothing.
//   - FsyncNone: commits never fsync (the OS writes back on its own
//     schedule). Still exact under kill -9; fastest; weakest under
//     power loss.
//
// Sync fsyncs under every policy: a checkpoint syncs its snapshot
// before truncating the history the snapshot replaces.
//
// A failed fsync poisons the log (Commit keeps failing): after EIO the
// kernel may have dropped the dirty pages, so retrying and reporting
// success would be a lie.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"tdnstream/internal/fault"
)

// Fsync policies: when appended frames are forced to disk. See the
// package comment for the durability each buys.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNone     = "none"
)

// ValidFsyncPolicy reports whether s names a supported fsync policy
// ("" means the default, FsyncInterval).
func ValidFsyncPolicy(s string) bool {
	switch s {
	case "", FsyncAlways, FsyncInterval, FsyncNone:
		return true
	}
	return false
}

// Options parameterizes a Log.
type Options struct {
	// Fsync is the durability policy (default FsyncInterval).
	Fsync string
	// FsyncEvery is the FsyncInterval cadence (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default 64 MiB). Rotation is what makes truncation
	// cheap: snapshot-covered history is dropped whole segments at a
	// time. A single oversized record still fits — frames may exceed
	// SegmentBytes; rotation happens between appends, never inside one.
	SegmentBytes int64
	// FS is the filesystem seam every file operation goes through
	// (default the real OS). Fault-injection tests and chaos runs pass
	// a fault.Injector here; production pays only an interface call.
	FS fault.FS
}

func (o Options) withDefaults() (Options, error) {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if !ValidFsyncPolicy(o.Fsync) {
		return o, fmt.Errorf("wal: unknown fsync policy %q (want %s, %s or %s)",
			o.Fsync, FsyncAlways, FsyncInterval, FsyncNone)
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = fault.OS()
	}
	return o, nil
}

// Pos addresses a frame boundary: byte offset Off into segment Seg.
// The positions the Log hands out (from Append and ReadFrom) are always
// boundaries; a snapshot stores the Pos *after* the last chunk it
// covers and replay resumes there.
type Pos struct {
	Seg uint64
	Off int64
}

// IsZero reports the genesis position (start of segment 0).
func (p Pos) IsZero() bool { return p.Seg == 0 && p.Off == 0 }

// Less orders positions by (segment, offset).
func (p Pos) Less(q Pos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seg, p.Off) }

// Token orders appends for Commit: Commit(t) returns once every append
// up to and including t is durable per the fsync policy.
type Token uint64

// Stats is a Log's observability snapshot.
type Stats struct {
	Segments   int    // live segment files
	Bytes      int64  // total bytes across live segments
	Appends    uint64 // frames appended since open
	Fsyncs     uint64 // fsync(2) calls issued since open
	FsyncNanos uint64 // cumulative wall time inside fsync batches (device time, no queue wait)
}

// ErrTruncated reports a ReadFrom position that precedes the log's
// earliest retained segment — the history there has been truncated away
// (or the directory was tampered with), so an exact replay from that
// position is impossible.
var ErrTruncated = errors.New("wal: position precedes the earliest retained segment")

// frameHeaderSize is the fixed per-frame overhead: u32 length + u32 CRC.
const frameHeaderSize = 8

// maxFrameBytes bounds a single frame payload (1 GiB): a length field
// larger than this is treated as tail corruption, not an allocation
// request.
const maxFrameBytes = 1 << 30

// maxScratchBytes bounds the frame assembly buffer a Log keeps between
// appends: ingest chunks fit, larger frames (snapshots) get a buffer of
// their own.
const maxScratchBytes = 1 << 20

// castagnoli is the CRC32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)
