package server

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"mime"
	"strings"
	"time"

	"tdnstream/internal/obs"
	"tdnstream/internal/stream"
	"tdnstream/internal/wal"
)

// Ingest body content types. NDJSON is the default when no Content-Type
// is sent.
const (
	ctNDJSON = "application/x-ndjson"
	ctJSONL  = "application/jsonl"
	ctCSV    = "text/csv"
)

// errUnknownEncoding marks a Content-Encoding this server cannot decode
// — a 415 to the client, distinct from a corrupt body (400).
var errUnknownEncoding = errors.New("server: unsupported Content-Encoding")

// inflateLimiter caps how many decompressed bytes an encoded ingest body
// may expand to — the decompression-bomb guard. MaxBodyBytes alone only
// bounds the compressed wire bytes, and gzip expands up to ~1000×; worse,
// an event-time chunk never flushes while its timestamp is constant, so
// without this cap a kilobyte of gzip repeating one timestamp could
// inflate into a single multi-gigabyte in-memory chunk. Like
// bodyLimitTracker, the hit flag is the handler's out-of-band signal
// (decoders can mask the error behind a truncated-line parse failure)
// to answer 413.
type inflateLimiter struct {
	r   io.Reader
	n   int64 // decompressed bytes still allowed
	hit bool
}

func (l *inflateLimiter) Read(p []byte) (int, error) {
	if l.n <= 0 {
		l.hit = true
		return 0, errors.New("server: decompressed ingest body exceeds the server's max body size")
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// decodeContentEncoding wraps an ingest body per its Content-Encoding.
// The wrap sits on top of the size-limit tracker, so MaxBodyBytes bounds
// the compressed wire bytes (what the connection actually carries); the
// decompressed stream is additionally capped at maxDecoded bytes (the
// returned inflateLimiter is nil for identity bodies, which MaxBodyBytes
// already bounds) and decoded incrementally into bounded chunks, so a
// high-ratio body surfaces as 413 or queue backpressure, never as
// memory growth.
func decodeContentEncoding(encoding string, body io.Reader, maxDecoded int64) (io.Reader, *inflateLimiter, error) {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "", "identity":
		return body, nil, nil
	case "gzip", "x-gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, nil, fmt.Errorf("server: bad gzip ingest body: %w", err)
		}
		l := &inflateLimiter{r: zr, n: maxDecoded}
		return l, l, nil
	default:
		return nil, nil, fmt.Errorf("%w %q (want gzip or identity)", errUnknownEncoding, encoding)
	}
}

// recordReaderFor picks a decoder for the request's Content-Type.
func recordReaderFor(contentType string, body io.Reader) (stream.RecordReader, error) {
	if contentType == "" {
		return stream.NewNDJSONReader(body), nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, fmt.Errorf("server: bad Content-Type %q: %w", contentType, err)
	}
	switch strings.ToLower(mt) {
	case ctNDJSON, ctJSONL, "application/json", "text/plain":
		return stream.NewNDJSONReader(body), nil
	case ctCSV, "application/csv":
		return stream.NewCSVReader(body), nil
	default:
		return nil, fmt.Errorf("server: unsupported Content-Type %q (want %s or %s)",
			mt, ctNDJSON, ctCSV)
	}
}

// ingestBody streams records from rr into the worker's queue in chunks of
// roughly maxChunk rows. It returns how many records were accepted; err
// distinguishes decode failures (malformed input) from backpressure
// (errQueueFull) and shutdown (errStreamClosed).
// The caller classifies the error for metrics and status (the handler
// counts malformed requests — a decode failure here may actually be a
// body-size-limit truncation it can see and this function cannot).
// Decoding is incremental: a chunked POST of unbounded length is admitted
// chunk by chunk, so a slow tracker surfaces as 429 — not as memory
// growth.
//
// For event-time streams a chunk never ends mid-timestamp: TDN time is
// strictly increasing, so once the worker steps past t any stragglers at
// t would be dropped as stale. Chunks therefore stretch past maxChunk
// until the timestamp changes. (Across requests the same applies —
// producers must not split one timestamp over two POSTs.) Out-of-order
// timestamps are tolerated chunk-locally (the worker sorts each chunk
// before stepping), but records whose timestamp regresses across a chunk
// boundary are dropped as stale — event-time producers should send
// bodies in non-decreasing timestamp order.
func ingestBody(w *worker, rr stream.RecordReader, maxChunk int, tr *obs.Trace) (accepted int, err error) {
	// The epoch is captured before decoding begins. Labels are interned a
	// whole chunk at a time, atomically with the epoch re-check
	// (worker.internAndEnqueue): if a checkpoint restore replaces the
	// label dictionary mid-body, the stale chunks are refused before they
	// can intern a single label into — or feed old-dictionary NodeIDs to —
	// the restored stream.
	epoch := w.ingestEpoch()
	timeMode := w.state.Load().timeMode
	// Decode time is accounted a chunk at a time — the span between
	// flushes is the reader pulling and parsing this chunk's records —
	// two clock reads per chunk instead of two per record. The chunk
	// buffer grows by append inside those spans, so no request time
	// falls between stages and a small body allocates only what it
	// holds; it is reused after each flush (internAndEnqueue copies it
	// out).
	decodeStart := time.Now()
	var raws []rawRecord
	// Durability is settled once per request, not per chunk: flush
	// tracks the last WAL token and finish commits it before any
	// return that acknowledges records — wal.Commit(t) covers every
	// append ≤ t, so one group-commit fsync seals the whole body. A
	// commit failure outranks whatever error the decode loop was about
	// to report: the accepted count in the response is an ack, and an
	// ack the log cannot back answers 500.
	var lastTok wal.Token
	finish := func(err error) (int, error) {
		if cerr := w.commitWAL(lastTok, tr); cerr != nil {
			return accepted, cerr
		}
		return accepted, err
	}
	flush := func() error {
		if len(raws) == 0 {
			return nil
		}
		decodeD := time.Since(decodeStart)
		w.rec.Observe(obs.StageDecode, decodeD)
		tr.Add(obs.StageDecode, decodeD)
		tok, err := w.internAndEnqueue(raws, epoch, tr)
		if err != nil {
			return err
		}
		if tok != 0 {
			lastTok = tok
		}
		accepted += len(raws)
		raws = raws[:0]
		decodeStart = time.Now()
		return nil
	}
	for {
		src, dst, t, rerr := rr.Read()
		if rerr == io.EOF {
			return finish(flush())
		}
		if rerr != nil {
			if ferr := flush(); ferr != nil {
				return finish(ferr)
			}
			return finish(rerr)
		}
		if src == dst {
			if ferr := flush(); ferr != nil {
				return finish(ferr)
			}
			return finish(fmt.Errorf("server: self-loop interaction on %q", src))
		}
		if len(raws) >= maxChunk &&
			(timeMode != TimeEvent || t != raws[len(raws)-1].t) {
			if ferr := flush(); ferr != nil {
				return finish(ferr)
			}
		}
		raws = append(raws, rawRecord{src: src, dst: dst, t: t})
	}
}
