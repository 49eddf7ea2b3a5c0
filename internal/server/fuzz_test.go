package server

import (
	"bytes"
	"context"
	"testing"
)

// FuzzDecodeCheckpoint fuzzes the envelope decoder, which reads bytes
// from POST /v1/admin/restore and from the log's snapshot frames at
// boot: a decode may fail but never panic, and whatever decodes must
// re-encode and decode back to an equal envelope. Equality is checked on
// the encodings, which compare NaN parameters bit for bit and treat a
// nil and an empty slice alike (gob sends neither). The corpus is seeded
// with real checkpoints of a plain, a sharded and an empty stream.
func FuzzDecodeCheckpoint(f *testing.F) {
	plain := testSpec("plain")
	sharded := testSpec("sharded")
	sharded.Tracker.Shards = 2
	sharded.Token = "redacted-on-checkpoint"
	empty := testSpec("empty")
	empty.TimeMode = TimeArrival
	s, err := New(Config{Streams: []StreamSpec{plain, sharded, empty}})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"plain", "sharded"} {
		w, _ := s.stream(name)
		if err := w.enqueue(chunk{rows: walRows(200, 1)}); err != nil { // the checkpoint drains it
			f.Fatal(err)
		}
	}
	for _, name := range []string{"plain", "sharded", "empty"} {
		data, err := s.Checkpoint(context.Background(), name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		enc, err := encodeCheckpoint(env)
		if err != nil {
			t.Fatalf("decoded envelope does not encode: %v", err)
		}
		again, err := decodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		enc2, err := encodeCheckpoint(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip changed the envelope:\n got %+v\nwant %+v", again, env)
		}
	})
}
