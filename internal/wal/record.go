package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"tdnstream/internal/ids"
	"tdnstream/internal/stream"
)

// Kind tags a record payload's first byte.
type Kind byte

const (
	// KindChunk is one post-intern ingest chunk (Record).
	KindChunk Kind = 1
	// KindSnapshot is a full stream state, appended in line with the
	// chunks by a checkpoint or an admin restore. The payload carries
	// the position the state covers, then the checkpoint envelope
	// itself. Recovery starts from the newest snapshot and replays the
	// chunks from its covered position on.
	KindSnapshot Kind = 2
)

const recordKindChunk = byte(KindChunk)

// PayloadKind reports a record payload's kind tag.
func PayloadKind(b []byte) (Kind, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("wal: empty record")
	}
	switch k := Kind(b[0]); k {
	case KindChunk, KindSnapshot:
		return k, nil
	default:
		return 0, fmt.Errorf("wal: unknown record kind %d", b[0])
	}
}

// AppendEncodeSnapshot appends a snapshot's wire form to buf. Layout:
//
//	u8   kind
//	uv   covers.Seg, uv covers.Off
//	     the checkpoint envelope bytes, to the end of the payload
//
// covers is the log position the state accounts for: every chunk
// before it is in the state, every chunk from it on is not. It may lie
// before the snapshot frame itself, because chunks are appended
// concurrently with a checkpoint.
func AppendEncodeSnapshot(buf []byte, covers Pos, envelope []byte) []byte {
	buf = append(buf, byte(KindSnapshot))
	buf = binary.AppendUvarint(buf, covers.Seg)
	buf = binary.AppendUvarint(buf, uint64(covers.Off))
	return append(buf, envelope...)
}

// DecodeSnapshot parses a snapshot payload into the position it covers
// and its checkpoint envelope. The envelope aliases b.
func DecodeSnapshot(b []byte) (covers Pos, envelope []byte, err error) {
	if len(b) == 0 || Kind(b[0]) != KindSnapshot {
		return Pos{}, nil, fmt.Errorf("wal: not a snapshot record")
	}
	seg, b, err := takeUvarint(b[1:])
	if err != nil {
		return Pos{}, nil, err
	}
	off, b, err := takeUvarint(b)
	if err != nil {
		return Pos{}, nil, err
	}
	if off > math.MaxInt64 {
		return Pos{}, nil, fmt.Errorf("wal: snapshot offset %d out of range", off)
	}
	return Pos{Seg: seg, Off: int64(off)}, b, nil
}

// Record is one logged ingest chunk: the interned interaction rows plus
// the label-dictionary delta that interning produced, so replay
// re-interns identically. DictBase is the dictionary length the delta
// starts at — Labels[i] is the name of NodeID DictBase+i. The delta may
// begin before the replayer's current dictionary length (labels
// interned by chunks that were refused at the queue still occupy their
// ids); apply verifies the overlap instead of re-assigning it.
//
// Rows reference NodeIDs strictly below DictBase+len(Labels), because
// the delta is captured after the chunk's labels are interned and
// dictionaries only grow.
type Record struct {
	DictBase int
	Labels   []string
	Rows     []stream.Interaction
}

// AppendEncode appends the record's wire form to buf and returns the
// extended slice. Layout (all varints):
//
//	u8   kind
//	uv   dictBase
//	uv   len(labels), then per label: uv byte-length + bytes
//	uv   len(rows),   then per row:   uv src, uv dst, v t
func (r *Record) AppendEncode(buf []byte) []byte {
	buf = append(buf, recordKindChunk)
	buf = binary.AppendUvarint(buf, uint64(r.DictBase))
	buf = binary.AppendUvarint(buf, uint64(len(r.Labels)))
	for _, l := range r.Labels {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Rows)))
	for _, row := range r.Rows {
		buf = binary.AppendUvarint(buf, uint64(row.Src))
		buf = binary.AppendUvarint(buf, uint64(row.Dst))
		buf = binary.AppendVarint(buf, row.T)
	}
	return buf
}

// DecodeRecord parses a record payload. It validates structure (kind,
// lengths, id bounds) — frame-level integrity is the CRC's job.
func DecodeRecord(b []byte) (Record, error) {
	var r Record
	if len(b) == 0 || b[0] != recordKindChunk {
		return r, fmt.Errorf("wal: unknown record kind")
	}
	b = b[1:]
	u, b, err := takeUvarint(b)
	if err != nil {
		return r, err
	}
	r.DictBase = int(u)
	nLabels, b, err := takeUvarint(b)
	if err != nil {
		return r, err
	}
	if nLabels > uint64(len(b)) { // each label costs ≥ 1 byte of wire
		return r, fmt.Errorf("wal: record label count %d exceeds payload", nLabels)
	}
	r.Labels = make([]string, nLabels)
	for i := range r.Labels {
		n, rest, err := takeUvarint(b)
		if err != nil {
			return r, err
		}
		if n > uint64(len(rest)) {
			return r, fmt.Errorf("wal: record label length %d exceeds payload", n)
		}
		r.Labels[i] = string(rest[:n])
		b = rest[n:]
	}
	nRows, b, err := takeUvarint(b)
	if err != nil {
		return r, err
	}
	if nRows > uint64(len(b)) { // each row costs ≥ 3 bytes of wire
		return r, fmt.Errorf("wal: record row count %d exceeds payload", nRows)
	}
	r.Rows = make([]stream.Interaction, nRows)
	for i := range r.Rows {
		var src, dst uint64
		var t int64
		if src, b, err = takeUvarint(b); err != nil {
			return r, err
		}
		if dst, b, err = takeUvarint(b); err != nil {
			return r, err
		}
		if t, b, err = takeVarint(b); err != nil {
			return r, err
		}
		if src > 0xffffffff || dst > 0xffffffff {
			return r, fmt.Errorf("wal: record node id out of range")
		}
		r.Rows[i] = stream.Interaction{Src: ids.NodeID(src), Dst: ids.NodeID(dst), T: t}
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return r, nil
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated varint in record")
	}
	return v, b[n:], nil
}

func takeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated varint in record")
	}
	return v, b[n:], nil
}
