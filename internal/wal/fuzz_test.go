package wal

import (
	"bytes"
	"reflect"
	"testing"

	"tdnstream/internal/stream"
)

// The decoders read bytes a crash may have torn and a CRC cannot vouch
// for beyond the frame, so they are fuzzed: a decode may fail but never
// panic, and whatever decodes must survive an encode/decode round trip
// unchanged. The seed corpora run under plain `go test`; CI adds a
// short -fuzz run per target.

func FuzzDecodeRecord(f *testing.F) {
	seeds := []Record{
		{},
		{DictBase: 7, Labels: []string{"alice", "bob", ""}, Rows: []stream.Interaction{
			{Src: 0, Dst: 1, T: -5}, {Src: 4_000_000_000, Dst: 2, T: 1 << 40},
		}},
		{DictBase: 1 << 20, Rows: []stream.Interaction{{Src: 9, Dst: 8, T: 0}}},
	}
	for _, r := range seeds {
		f.Add(r.AppendEncode(nil))
	}
	f.Add([]byte{recordKindChunk, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		if err != nil {
			return
		}
		again, err := DecodeRecord(rec.AppendEncode(nil))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(AppendEncodeSnapshot(nil, Pos{}, nil))
	f.Add(AppendEncodeSnapshot(nil, Pos{Seg: 3, Off: 1 << 40}, []byte("envelope")))
	f.Add(AppendEncodeSnapshot(nil, Pos{Seg: 1 << 62, Off: 12}, bytes.Repeat([]byte{0xff}, 64)))
	f.Fuzz(func(t *testing.T, b []byte) {
		covers, env, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		covers2, env2, err := DecodeSnapshot(AppendEncodeSnapshot(nil, covers, env))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if covers2 != covers || !bytes.Equal(env2, env) {
			t.Fatalf("round trip changed the snapshot: %v %q, want %v %q", covers2, env2, covers, env)
		}
	})
}
