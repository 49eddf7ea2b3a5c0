package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tdnstream"
)

// buildMux wires the HTTP API onto a ServeMux, wrapped with status-class
// accounting for the /metrics request counters.
func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/topk", s.handleTopK)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/streams", s.handleListStreams)
	mux.HandleFunc("POST /v1/streams", s.handleCreateStream)
	mux.HandleFunc("DELETE /v1/streams/{name}", s.handleDeleteStream)
	mux.HandleFunc("GET /v1/streams/{name}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/streams/{name}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/streams/{name}/stats", s.handleEngineStats)
	mux.HandleFunc("GET /v1/streams/{name}/quality", s.handleQuality)
	mux.HandleFunc("POST /v1/admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /v1/admin/restore", s.handleRestore)
	mux.HandleFunc("GET /v1/admin/fault", s.handleFaultList)
	mux.HandleFunc("POST /v1/admin/fault", s.handleFaultAdd)
	mux.HandleFunc("DELETE /v1/admin/fault", s.handleFaultDrop)
	return s.countStatuses(mux)
}

// statusRecorder captures the response status for request accounting.
// It forwards the streaming capabilities of the wrapped writer: the
// events endpoint needs Flush (SSE) and Hijack (WebSocket upgrade).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := r.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("server: response writer cannot hijack")
	}
	return hj.Hijack()
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) countStatuses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		switch {
		case rec.status >= 500:
			s.req5xx.Add(1)
			// 5xx means the server failed the client — worth a line with
			// request-scoped attributes. 4xx is the client's problem and
			// 2xx is the common case; neither earns log traffic. 503 is
			// excluded too: a degraded stream answers it per request
			// (potentially thousands per second under load), and the
			// degrade/repair transitions are already logged once each.
			if rec.status == http.StatusServiceUnavailable {
				break
			}
			s.cfg.logger().Error("request failed",
				slog.Int("status", rec.status),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("stream", r.URL.Query().Get("stream")),
				slog.String("remote", r.RemoteAddr),
				slog.Duration("elapsed", time.Since(start)),
			)
		case rec.status >= 400:
			s.req4xx.Add(1)
		default:
			s.req2xx.Add(1)
		}
	})
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the API's JSON error shape.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// namedStream resolves the ?stream= parameter, writing the error response
// itself when the stream is missing or unknown.
func (s *Server) namedStream(w http.ResponseWriter, r *http.Request) (*worker, bool) {
	name := r.URL.Query().Get("stream")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?stream= parameter")
		return nil, false
	}
	wk, ok := s.stream(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", name)
		return nil, false
	}
	return wk, true
}

// ingestResponse summarizes one ingest request.
type ingestResponse struct {
	Stream   string `json:"stream"`
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// retryAfterSeconds renders a Retry-After header value, rounding up to a
// whole second (the header's granularity).
func retryAfterSeconds(d time.Duration) string {
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

// bodyLimitTracker notes when the wrapped MaxBytesReader refuses a read.
// The record decoders can mask the limit error behind a parse failure on
// the truncated final line, so the handler needs this out-of-band signal
// to answer 413 rather than 400.
type bodyLimitTracker struct {
	r   io.Reader
	hit bool
}

func (b *bodyLimitTracker) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	var tooBig *http.MaxBytesError
	if err != nil && errors.As(err, &tooBig) {
		b.hit = true
	}
	return n, err
}

// handleIngest streams the request body into the stream's bounded queue.
// A full queue yields 429 with Retry-After (with the count admitted so
// far, so producers can resume); malformed input yields 400; an oversized
// body yields 413; an unknown Content-Encoding yields 415 (gzip and
// identity are supported); a restore that replaced the stream state
// mid-request yields 409 (retry re-interns against the new label
// dictionary).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	wk, ok := s.namedStream(w, r)
	if !ok {
		return
	}
	if !s.authorize(w, r, wk) {
		return
	}
	start := time.Now()
	defer func() { wk.m.ingestLat.Observe(time.Since(start)) }()
	if wk.degraded.Load() {
		// Graceful degradation: the stream's write-ahead log is faulted
		// and under background repair. Refuse new writes before reading a
		// byte of body — nothing is acknowledged that cannot be made
		// durable — while /v1/topk and the events feed keep serving the
		// last good state. Retry-After points past the repair backoff.
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeJSON(w, http.StatusServiceUnavailable, ingestResponse{
			Stream: wk.name,
			Error:  "stream degraded: write-ahead log fault, repair in progress: " + wk.lastError(),
		})
		return
	}
	tr := wk.rec.Start("ingest")
	body := &bodyLimitTracker{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	decoded, inflate, err := decodeContentEncoding(r.Header.Get("Content-Encoding"), body, s.cfg.MaxBodyBytes)
	if err != nil {
		if errors.Is(err, errUnknownEncoding) {
			tr.Finish(http.StatusUnsupportedMediaType)
			writeError(w, http.StatusUnsupportedMediaType, "%v", err)
		} else { // present but corrupt (bad gzip header) — a decode error like any other 400
			wk.m.malformed.Add(1)
			tr.Finish(http.StatusBadRequest)
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	rr, err := recordReaderFor(r.Header.Get("Content-Type"), decoded)
	if err != nil {
		tr.Finish(http.StatusUnsupportedMediaType)
		writeError(w, http.StatusUnsupportedMediaType, "%v", err)
		return
	}
	accepted, err := ingestBody(wk, rr, s.cfg.MaxChunk, tr)
	resp := ingestResponse{Stream: wk.name, Accepted: accepted}
	status := http.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		resp.Error = "ingest queue full"
		status = http.StatusTooManyRequests
	case errors.Is(err, errStreamClosed):
		resp.Error = "stream shutting down"
		status = http.StatusServiceUnavailable
	case errors.Is(err, errStaleIngest):
		resp.Error = "stream restored during ingest; retry"
		status = http.StatusConflict
	case errors.Is(err, errWAL):
		// Durability fault, not an input fault: the write-ahead log
		// refused the append (or its fsync failed), so the server will
		// not acknowledge what it cannot promise to recover.
		resp.Error = err.Error()
		status = http.StatusInternalServerError
	case body.hit:
		resp.Error = "ingest body exceeds the server's max body size"
		status = http.StatusRequestEntityTooLarge
	case inflate != nil && inflate.hit:
		resp.Error = "decompressed ingest body exceeds the server's max body size"
		status = http.StatusRequestEntityTooLarge
	default:
		wk.m.malformed.Add(1)
		resp.Error = err.Error()
		status = http.StatusBadRequest
	}
	// Finish before writing the response: the trace measures the ingest
	// pipeline (its last reference is usually the worker finishing the
	// final chunk), not response serialization.
	tr.AddRecords(int64(accepted))
	tr.Finish(status)
	writeJSON(w, status, resp)
}

// seedJSON is one solution seed with its resolved label.
type seedJSON struct {
	ID    tdnstream.NodeID `json:"id"`
	Label string           `json:"label,omitempty"`
}

// topKResponse is the read-path answer: the current snapshot. Seq is the
// notify-subsystem sequence number of the snapshot — the same token push
// subscribers see as event seq / Last-Event-ID, and the same token the
// ETag header carries, so pollers and subscribers agree on "how current
// is this answer".
type topKResponse struct {
	Stream      string     `json:"stream"`
	Algo        string     `json:"algo"`
	T           int64      `json:"t"`
	Steps       uint64     `json:"steps"`
	Processed   uint64     `json:"processed"`
	OracleCalls uint64     `json:"oracle_calls"`
	Seq         uint64     `json:"seq"`
	Value       int        `json:"value"`
	Seeds       []seedJSON `json:"seeds"`
}

func (s *Server) snapshotResponse(wk *worker, snap *Snapshot, limit int) topKResponse {
	resp := topKResponse{
		Stream:      snap.Stream,
		Algo:        snap.Algo,
		T:           snap.T,
		Steps:       snap.Steps,
		Processed:   snap.Processed,
		OracleCalls: snap.OracleCalls,
		Seq:         snap.Seq,
		Value:       snap.Solution.Value,
		Seeds:       []seedJSON{},
	}
	for i, id := range snap.Solution.Seeds {
		if limit > 0 && i >= limit {
			break
		}
		resp.Seeds = append(resp.Seeds, seedJSON{ID: id, Label: wk.labels.name(id)})
	}
	return resp
}

// etagFor renders a snapshot's cache validator: the stream name plus the
// notify sequence number, which changes exactly when the published
// solution does.
func etagFor(stream string, seq uint64) string {
	return `"` + stream + `-` + strconv.FormatUint(seq, 10) + `"`
}

// etagMatches implements the If-None-Match comparison over a (possibly
// comma-separated) header value.
func etagMatches(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/") // weak compare is fine for a JSON body
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// handleTopK serves the current influential nodes from the atomically-
// swapped snapshot: no locks shared with the ingest path, no tracker
// work. The response carries an ETag derived from the notify sequence
// counter; a poller replaying it via If-None-Match gets 304 until the
// top-k actually changes, which makes residual polling nearly free —
// though such clients should really subscribe to
// /v1/streams/{name}/events instead.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	wk, ok := s.namedStream(w, r)
	if !ok {
		return
	}
	start := time.Now()
	defer func() { wk.m.topkLat.Observe(time.Since(start)) }()
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit %q", q)
			return
		}
		limit = n
	}
	snap := wk.snapshot()
	etag := etagFor(wk.name, snap.Seq)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotResponse(wk, snap, limit))
}

// contributionJSON is one seed's share of the solution spread.
type contributionJSON struct {
	ID        tdnstream.NodeID `json:"id"`
	Label     string           `json:"label,omitempty"`
	Gain      int              `json:"gain"`
	Exclusive int              `json:"exclusive"`
}

// handleExplain decomposes the current solution into per-seed
// contributions. Unlike /v1/topk this runs on the worker goroutine (it
// costs tracker oracle calls), so it waits behind in-flight chunks.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	wk, ok := s.namedStream(w, r)
	if !ok {
		return
	}
	if !s.authorize(w, r, wk) { // explain spends oracle calls on the worker goroutine
		return
	}
	var contribs []tdnstream.SeedContribution
	err := wk.do(r.Context(), func() {
		contribs = tdnstream.Explain(wk.state.Load().tracker)
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if contribs == nil {
		writeError(w, http.StatusUnprocessableEntity,
			"stream %q: tracker %q does not support explain (or has no data yet)",
			wk.name, wk.snapshot().Algo)
		return
	}
	out := make([]contributionJSON, 0, len(contribs))
	for _, c := range contribs {
		out = append(out, contributionJSON{
			ID: c.Seed, Label: wk.labels.name(c.Seed), Gain: c.Gain, Exclusive: c.Exclusive,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"stream": wk.name, "contributions": out})
}

// streamInfo is one stream's entry in /v1/streams and /healthz.
type streamInfo struct {
	Name       string `json:"name"`
	Algo       string `json:"algo"`
	TimeMode   string `json:"time_mode"`
	T          int64  `json:"t"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_capacity"`
	Ingested   uint64 `json:"ingested"`
	Processed  uint64 `json:"processed"`
	// StaleDropped counts acknowledged records the tracker skipped (event-
	// mode timestamps at or before stream time); Failed counts records in
	// batches the tracker rejected (LastError holds the cause); Superseded
	// counts records a checkpoint restore discarded from the queue
	// unprocessed (their effect was replaced wholesale by the restored
	// state). Every acknowledged record lands in exactly one of Processed,
	// StaleDropped, Failed or Superseded, so read-your-writes pollers
	// should wait for their sum to reach Ingested — Processed alone never
	// catches up after a replay, a poisoned batch or a restore.
	StaleDropped uint64 `json:"stale_dropped"`
	Failed       uint64 `json:"failed"`
	Superseded   uint64 `json:"superseded"`
	Steps        uint64 `json:"steps"`
	Value        int    `json:"value"`
	// Seq is the stream's latest notify sequence number and Subscribers
	// its live events-feed consumer count. AuthRequired reports whether
	// the stream's mutating endpoints demand a bearer token — the token
	// itself is deliberately absent from every listing.
	AuthRequired bool   `json:"auth_required,omitempty"`
	Seq          uint64 `json:"seq"`
	Subscribers  int    `json:"subscribers"`
	// WAL reports whether the stream runs with a write-ahead log (200
	// OK ⇒ the record survives a process kill); WALBytes is the log's
	// current on-disk footprint across segments.
	WAL      bool  `json:"wal,omitempty"`
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// WALApplied is the apply watermark: the log position (segment,
	// byte offset) through which the worker has fed acknowledged chunks
	// into the tracker. Replay after a crash resumes from at most here;
	// the gap to the log tail is the stream's replay debt.
	WALApplied *walAppliedJSON `json:"wal_applied,omitempty"`
	// State is the serving state: "healthy", or "degraded" while the
	// stream's write-ahead log is faulted and under background repair —
	// ingest answers 503 + Retry-After, reads keep serving the last good
	// snapshot. DegradedSeconds is how long the current degradation has
	// lasted (absent when healthy); WALRepairs counts successful
	// background repairs over the stream's lifetime.
	State           string  `json:"state"`
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`
	WALRepairs      uint64  `json:"wal_repairs,omitempty"`
	LastError       string  `json:"last_error,omitempty"`
}

// walAppliedJSON renders the WAL apply watermark in stream listings.
type walAppliedJSON struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

func (s *Server) infoFor(wk *worker) streamInfo {
	snap := wk.snapshot()
	var walOn bool
	var walBytes int64
	var walApplied *walAppliedJSON
	if wk.logChunks {
		walOn = true
		walBytes = wk.wlog.Stats().Bytes
		walApplied = &walAppliedJSON{
			Segment: wk.walAppliedSeg.Load(),
			Offset:  wk.walAppliedOff.Load(),
		}
	}
	return streamInfo{
		Name:            wk.name,
		WAL:             walOn,
		WALBytes:        walBytes,
		WALApplied:      walApplied,
		State:           wk.serveState(),
		DegradedSeconds: wk.degradedFor().Seconds(),
		WALRepairs:      wk.m.walRepairs.Load(),
		Algo:            snap.Algo,
		TimeMode:        wk.state.Load().timeMode,
		T:               snap.T,
		QueueDepth:      wk.queueDepth(),
		QueueCap:        cap(wk.queue),
		Ingested:        wk.m.ingested.Load(),
		Processed:       wk.m.processed.Load(),
		StaleDropped:    wk.m.staleDrop.Load(),
		Failed:          wk.m.failed.Load(),
		Superseded:      wk.m.superseded.Load(),
		Steps:           wk.m.steps.Load(),
		Value:           snap.Solution.Value,
		AuthRequired:    wk.token != "",
		Seq:             snap.Seq,
		Subscribers:     s.hub.Stats(wk.name).Subscribers,
		LastError:       wk.lastError(),
	}
}

func (s *Server) handleListStreams(w http.ResponseWriter, r *http.Request) {
	infos := []streamInfo{}
	for _, name := range s.StreamNames() {
		if wk, ok := s.stream(name); ok {
			infos = append(infos, s.infoFor(wk))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"streams": infos})
}

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	var spec StreamSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad stream spec: %v", err)
		return
	}
	if err := s.AddStream(spec); err != nil {
		status := http.StatusBadRequest // invalid spec (unknown algo, bad params, bad name)
		switch {
		case errors.Is(err, errDuplicateStream):
			status = http.StatusConflict
		case errors.Is(err, errStreamClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"stream": spec.Name})
}

func (s *Server) handleDeleteStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if wk, ok := s.stream(name); ok && !s.authorize(w, r, wk) {
		return
	}
	if err := s.RemoveStream(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"stream": name, "status": "removed"})
}

// handleCheckpoint serializes a stream's state as a binary body that
// /v1/admin/restore (on this or any other server) accepts.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	wk, ok := s.namedStream(w, r)
	if !ok {
		return
	}
	if !s.authorize(w, r, wk) {
		return
	}
	var data []byte
	var cerr error
	if err := wk.do(r.Context(), func() { data, _, cerr = wk.checkpoint() }); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if cerr != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", cerr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleRestore applies a checkpoint body, creating the stream if this
// server does not host it yet. Restoring over a token-guarded hosted
// stream requires that stream's token (the body replaces its state
// wholesale); creating a brand-new stream from a checkpoint is open,
// like POST /v1/streams.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read checkpoint: %v", err)
		return
	}
	if env, err := decodeCheckpoint(data); err == nil {
		if wk, hosted := s.stream(env.Spec.Name); hosted && !s.authorize(w, r, wk) {
			return
		}
	}
	name, err := s.Restore(r.Context(), data)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := map[string]any{"stream": name, "restored": true}
	if wk, ok := s.stream(name); ok { // can vanish under a racing DELETE
		resp["info"] = s.infoFor(wk)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos := []streamInfo{}
	status := "ok"
	for _, name := range s.StreamNames() {
		if wk, ok := s.stream(name); ok {
			info := s.infoFor(wk)
			if info.State == StateDegraded {
				// Degraded ≠ dead: the answer stays 200 (reads serve, the
				// process is live) but the status field flags that some
				// stream is refusing writes while its log heals.
				status = StateDegraded
			}
			infos = append(infos, info)
		}
	}
	score, components := s.healthComponents()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"score":          score,
		"components":     components,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"streams":        infos,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
