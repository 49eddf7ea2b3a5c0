package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tdnstream"
	"tdnstream/internal/notify"
)

// pushSpec is the stream the push tests drive: k=1 over a 10-step
// window, so feeding a burst from one source makes it enter the top-k
// and feeding a later burst from another source (after the first
// burst's edges expire) makes the first leave — deterministic entered
// and left events.
func pushSpec(name string) StreamSpec {
	return StreamSpec{
		Name:     name,
		Tracker:  tdnstream.TrackerSpec{Algo: "histapprox", K: 1, Eps: 0.2, L: 100},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 10},
	}
}

// sseClient consumes one SSE response in the background, decoding each
// data payload into a notify.Event.
type sseClient struct {
	resp   *http.Response
	events chan notify.Event
	done   chan struct{}
}

// sseSubscribe opens an events subscription. lastEventID, when non-empty,
// is sent as the SSE reconnect header.
func sseSubscribe(t *testing.T, url, lastEventID string) *sseClient {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events subscribe: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		t.Fatalf("events content type %q", ct)
	}
	c := &sseClient{resp: resp, events: make(chan notify.Event, 256), done: make(chan struct{})}
	t.Cleanup(c.close)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "data: "):
				data = line[len("data: "):]
			case line == "" && data != "":
				var ev notify.Event
				if err := json.Unmarshal([]byte(data), &ev); err == nil {
					c.events <- ev
				}
				data = ""
			}
		}
	}()
	return c
}

// next waits for one event (failing the test on timeout).
func (c *sseClient) next(t *testing.T) notify.Event {
	t.Helper()
	select {
	case ev := <-c.events:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for an SSE event")
		return notify.Event{}
	}
}

// collectUntil reads events until pred is satisfied (failing on timeout),
// returning everything read.
func (c *sseClient) collectUntil(t *testing.T, pred func([]notify.Event) bool) []notify.Event {
	t.Helper()
	var evs []notify.Event
	for !pred(evs) {
		evs = append(evs, c.next(t))
	}
	return evs
}

func (c *sseClient) close() { c.resp.Body.Close(); <-c.done }

// burst renders a one-timestamp NDJSON burst from src to n fan-out
// targets.
func burst(src string, t int64, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "{\"src\":%q,\"dst\":\"%s_t%d\",\"t\":%d}\n", src, src, i, t)
	}
	return b.String()
}

func hasTyped(evs []notify.Event, typ notify.EventType, label string) bool {
	for _, e := range evs {
		if e.Type == typ && e.Node != nil && e.Node.Label == label {
			return true
		}
	}
	return false
}

// TestSSEPushAndResume is the acceptance e2e: ingest drives an entered
// and a left event to a live SSE subscriber, and a reconnect with
// Last-Event-ID resumes the feed without gaps or duplicates.
func TestSSEPushAndResume(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("push")}})
	w, _ := s.stream("push")

	sub := sseSubscribe(t, ts.URL+"/v1/streams/push/events", "")
	// The subscription replays the genesis keyframe of the (still empty)
	// stream first.
	first := sub.next(t)
	if first.Type != notify.Keyframe || first.Seq == 0 {
		t.Fatalf("first event = %+v, want the genesis keyframe", first)
	}

	// Burst 1: "a" dominates and enters the top-k.
	post(t, ts.URL+"/v1/ingest?stream=push", ctNDJSON, burst("a", 1, 4))
	evs := sub.collectUntil(t, func(evs []notify.Event) bool { return hasTyped(evs, notify.Entered, "a") })

	// Burst 2 at t=20: a's edges (window 10) are gone; "d" takes the
	// top-k slot → entered d, left a.
	post(t, ts.URL+"/v1/ingest?stream=push", ctNDJSON, burst("d", 20, 4))
	evs = append(evs, sub.collectUntil(t, func(evs []notify.Event) bool {
		return hasTyped(evs, notify.Entered, "d") && hasTyped(evs, notify.Left, "a")
	})...)

	// Sequence numbers are contiguous from the keyframe on: no gaps, no
	// duplicates.
	last := first.Seq
	for _, e := range evs {
		if e.Seq != last+1 {
			t.Fatalf("seq gap or duplicate: %d after %d (%+v)", e.Seq, last, evs)
		}
		last = e.Seq
	}
	sub.close()

	// Churn while disconnected: "e" replaces "d" at t=40.
	post(t, ts.URL+"/v1/ingest?stream=push", ctNDJSON, burst("e", 40, 4))
	waitProcessed(t, w, 12)

	// Reconnect with the SSE-standard resume header: the journaled
	// continuation starts at exactly last+1 — nothing skipped, nothing
	// replayed.
	sub2 := sseSubscribe(t, ts.URL+"/v1/streams/push/events", fmt.Sprintf("%d", last))
	evs2 := sub2.collectUntil(t, func(evs []notify.Event) bool {
		return hasTyped(evs, notify.Entered, "e") && hasTyped(evs, notify.Left, "d")
	})
	for _, e := range evs2 {
		if e.Seq != last+1 {
			t.Fatalf("resume gap or duplicate: seq %d after %d", e.Seq, last)
		}
		last = e.Seq
	}

	// ?since= is the header's query twin (for WebSocket and curl).
	sub3 := sseSubscribe(t, ts.URL+fmt.Sprintf("/v1/streams/push/events?since=%d", first.Seq), "")
	if got := sub3.next(t); got.Seq != first.Seq+1 {
		t.Fatalf("?since resume starts at %d, want %d", got.Seq, first.Seq+1)
	}
}

// TestSSEEvictedResumeGetsKeyframe: when the requested sequence number
// has been evicted from the journal, the subscriber gets a keyframe
// resync carrying the full current top-k instead of a gapped replay.
func TestSSEEvictedResumeGetsKeyframe(t *testing.T) {
	cfg := Config{
		Streams: []StreamSpec{pushSpec("ev")},
		Notify:  notify.Config{JournalSize: 2, KeyframeEvery: 1 << 30},
	}
	s, ts := newTestServer(t, cfg)
	w, _ := s.stream("ev")
	// Enough churn to blow a 2-event journal several times over.
	rows := 0
	for i := 0; i < 8; i++ {
		post(t, ts.URL+"/v1/ingest?stream=ev", ctNDJSON, burst(fmt.Sprintf("s%d", i), int64(1+20*i), 4))
		rows += 4
	}
	waitProcessed(t, w, uint64(rows))

	sub := sseSubscribe(t, ts.URL+"/v1/streams/ev/events?since=1", "")
	got := sub.next(t)
	if got.Type != notify.Keyframe {
		t.Fatalf("evicted resume got %+v, want a keyframe", got)
	}
	if got.Seq != w.snapshot().Seq {
		t.Fatalf("resync keyframe seq %d, want current %d", got.Seq, w.snapshot().Seq)
	}
	if len(got.TopK) == 0 || got.TopK[0].Label != "s7" {
		t.Fatalf("resync keyframe topk %+v, want the current winner s7", got.TopK)
	}
}

// TestWebSocketEvents: the same endpoint upgrades to a WebSocket and
// pushes the same JSON events as text frames.
func TestWebSocketEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("ws")}})
	w, _ := s.stream("ws")
	post(t, ts.URL+"/v1/ingest?stream=ws", ctNDJSON, burst("a", 1, 4))
	waitProcessed(t, w, 4)

	conn, br := wsDialPath(t, ts.URL, "/v1/streams/ws/events?since=0")
	defer conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	seen := map[notify.EventType]bool{}
	last := uint64(0)
	for !(seen[notify.Keyframe] && seen[notify.Entered]) {
		if time.Now().After(deadline) {
			t.Fatalf("websocket frames missing keyframe/entered: %v", seen)
		}
		ev := wsReadEvent(t, br)
		if ev.Seq != last+1 {
			t.Fatalf("websocket seq gap: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		seen[ev.Type] = true
	}
}

// wsDialPath opens a raw WebSocket client connection to path on the
// httptest server at base.
func wsDialPath(t *testing.T, base, path string) (net.Conn, *bufio.Reader) {
	t.Helper()
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.DialTimeout("tcp", host, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	key := base64.StdEncoding.EncodeToString([]byte("fedcba9876543210"))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", path, host, key)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(resp.Body)
		conn.Close()
		t.Fatalf("websocket handshake: status %d: %s", resp.StatusCode, body)
	}
	return conn, br
}

// wsReadEvent reads server frames until one text frame parses as an
// event (skipping pings).
func wsReadEvent(t *testing.T, br *bufio.Reader) notify.Event {
	t.Helper()
	for {
		var h [2]byte
		if _, err := io.ReadFull(br, h[:]); err != nil {
			t.Fatal(err)
		}
		n := int(h[1] & 0x7F)
		switch n {
		case 126:
			var ext [2]byte
			io.ReadFull(br, ext[:])
			n = int(binary.BigEndian.Uint16(ext[:]))
		case 127:
			var ext [8]byte
			io.ReadFull(br, ext[:])
			n = int(binary.BigEndian.Uint64(ext[:]))
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal(err)
		}
		if h[0]&0x0F != 0x1 { // not a text frame (ping, close, …)
			continue
		}
		var ev notify.Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			t.Fatalf("websocket frame is not an event: %q (%v)", payload, err)
		}
		return ev
	}
}

// TestTopKETagSeq: /v1/topk carries the notify sequence number as both a
// JSON field and an ETag; If-None-Match with the current tag is answered
// 304 until the published solution actually changes.
func TestTopKETagSeq(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("etag")}})
	w, _ := s.stream("etag")
	post(t, ts.URL+"/v1/ingest?stream=etag", ctNDJSON, burst("a", 1, 4))
	waitProcessed(t, w, 4)

	resp, err := http.Get(ts.URL + "/v1/topk?stream=etag")
	if err != nil {
		t.Fatal(err)
	}
	var tk topKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if tk.Seq == 0 || etag != fmt.Sprintf("%q", fmt.Sprintf("etag-%d", tk.Seq)) {
		t.Fatalf("seq %d etag %q do not line up", tk.Seq, etag)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/topk?stream=etag", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", resp.StatusCode)
	}

	// Change the top-k; the same tag now misses.
	post(t, ts.URL+"/v1/ingest?stream=etag", ctNDJSON, burst("d", 20, 4))
	waitProcessed(t, w, 8)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", resp.StatusCode)
	}
	var tk2 topKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk2); err != nil {
		t.Fatal(err)
	}
	if tk2.Seq <= tk.Seq {
		t.Fatalf("seq did not advance: %d → %d", tk.Seq, tk2.Seq)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("etag did not change with the solution")
	}
}

// TestRestoreSeqContinuity: the checkpoint envelope carries the notify
// sequence counter, so a restored server resumes stamping events after
// everything the original handed out — a dashboard's Last-Event-ID from
// before the restart still resolves sanely (keyframe resync, never a
// silent replay of stale sequence numbers).
func TestRestoreSeqContinuity(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("cont")}})
	w, _ := s.stream("cont")
	post(t, ts.URL+"/v1/ingest?stream=cont", ctNDJSON, burst("a", 1, 4))
	post(t, ts.URL+"/v1/ingest?stream=cont", ctNDJSON, burst("d", 20, 4))
	waitProcessed(t, w, 8)
	seqBefore := w.snapshot().Seq
	if seqBefore == 0 {
		t.Fatal("no events published before checkpoint")
	}
	_, ckpt := post(t, ts.URL+"/v1/admin/checkpoint?stream=cont", "", "")
	env, err := decodeCheckpoint([]byte(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if env.NotifySeq != seqBefore {
		t.Fatalf("envelope NotifySeq %d, want %d", env.NotifySeq, seqBefore)
	}

	// Restore into a brand-new server: the first publish there must stamp
	// past the checkpointed counter.
	s2, ts2 := newTestServer(t, Config{})
	if _, err := s2.Restore(testContext(t), []byte(ckpt)); err != nil {
		t.Fatal(err)
	}
	w2, _ := s2.stream("cont")
	if got := w2.snapshot().Seq; got <= seqBefore {
		t.Fatalf("restored server seq %d, want > %d", got, seqBefore)
	}
	// A pre-restart subscriber position resolves to a keyframe resync
	// (the new journal cannot prove continuity), not to replayed seqs.
	sub := sseSubscribe(t, ts2.URL+fmt.Sprintf("/v1/streams/cont/events?since=%d", seqBefore-1), "")
	got := sub.next(t)
	if got.Type != notify.Keyframe || got.Seq <= seqBefore {
		t.Fatalf("post-restore resume = %+v, want a keyframe past seq %d", got, seqBefore)
	}

	// In-place restore of an *older* checkpoint never rewinds the live
	// counter.
	post(t, ts2.URL+"/v1/ingest?stream=cont", ctNDJSON, burst("e", 40, 4))
	waitProcessed(t, w2, 4)
	highSeq := w2.snapshot().Seq
	resp, err := http.Post(ts2.URL+"/v1/admin/restore", "application/octet-stream", bytes.NewReader([]byte(ckpt)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := w2.snapshot().Seq; got <= highSeq {
		t.Fatalf("in-place restore rewound seq: %d, want > %d", got, highSeq)
	}
}

// TestRecreateStreamSeqMonotone: DELETE + re-POST of the same stream
// name keeps the notify sequence (and therefore the /v1/topk ETag)
// monotone, so clients of the old incarnation can never false-304 or
// silently splice journals across incarnations.
func TestRecreateStreamSeqMonotone(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("re")}})
	w, _ := s.stream("re")
	post(t, ts.URL+"/v1/ingest?stream=re", ctNDJSON, burst("a", 1, 4))
	waitProcessed(t, w, 4)
	oldSeq := w.snapshot().Seq
	if oldSeq == 0 {
		t.Fatal("no events before delete")
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/re", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	spec, _ := json.Marshal(pushSpec("re"))
	if code, body := post(t, ts.URL+"/v1/streams", "application/json", string(spec)); code != http.StatusCreated {
		t.Fatalf("recreate: %d: %s", code, body)
	}
	w2, _ := s.stream("re")
	if got := w2.snapshot().Seq; got <= oldSeq {
		t.Fatalf("re-created stream seq %d, want > retired %d", got, oldSeq)
	}
}

// TestCloseSubscriptionsUnblocksHandlers: the daemon's shutdown hook
// ends live SSE responses (so http.Server.Shutdown is not held hostage)
// without disturbing the stream's notify state.
func TestCloseSubscriptionsUnblocksHandlers(t *testing.T) {
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("shut")}})
	w, _ := s.stream("shut")
	post(t, ts.URL+"/v1/ingest?stream=shut", ctNDJSON, burst("a", 1, 4))
	waitProcessed(t, w, 4)
	seqBefore := w.snapshot().Seq

	sub := sseSubscribe(t, ts.URL+"/v1/streams/shut/events?since=0", "")
	sub.next(t) // the response is live
	s.CloseSubscriptions()
	select {
	case <-sub.done: // handler returned, response body ended
	case <-time.After(5 * time.Second):
		t.Fatal("SSE handler still live after CloseSubscriptions")
	}
	// Notify state survived: same counter, and a shutdown checkpoint
	// would record it.
	if got := s.hub.Stats("shut").Seq; got != seqBefore {
		t.Fatalf("CloseSubscriptions changed seq: %d → %d", seqBefore, got)
	}
}

// TestStreamAuthTokens covers the per-stream bearer-token satellite:
// 401s on ingest/admin/events without the token, success with it, the
// token absent from listings and redacted from checkpoint envelopes,
// and an in-place restore keeping the live token.
func TestStreamAuthTokens(t *testing.T) {
	spec := pushSpec("sec")
	spec.Token = "s3cret-token"
	s, ts := newTestServer(t, Config{Streams: []StreamSpec{spec}})
	w, _ := s.stream("sec")

	authed := func(method, url, body string, hdr map[string]string) int {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	bearer := map[string]string{"Authorization": "Bearer s3cret-token"}

	// Ingest: 401 bare, 401 wrong, 200 right.
	if code := authed("POST", ts.URL+"/v1/ingest?stream=sec", burst("a", 1, 4), nil); code != http.StatusUnauthorized {
		t.Fatalf("bare ingest: %d, want 401", code)
	}
	if code := authed("POST", ts.URL+"/v1/ingest?stream=sec", burst("a", 1, 4),
		map[string]string{"Authorization": "Bearer nope"}); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token ingest: %d, want 401", code)
	}
	if code := authed("POST", ts.URL+"/v1/ingest?stream=sec", burst("a", 1, 4), bearer); code != http.StatusOK {
		t.Fatalf("authed ingest: %d, want 200", code)
	}
	waitProcessed(t, w, 4)

	// Events: 401 bare; ?token= works for header-less browser clients.
	if code := authed("GET", ts.URL+"/v1/streams/sec/events", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("bare events: %d, want 401", code)
	}
	sub := sseSubscribe(t, ts.URL+"/v1/streams/sec/events?token=s3cret-token&since=0", "")
	if ev := sub.next(t); ev.Seq == 0 {
		t.Fatalf("authed events subscription got %+v", ev)
	}

	// Read-only surfaces stay open, and never leak the token.
	code, body := get(t, ts.URL+"/v1/topk?stream=sec")
	if code != http.StatusOK {
		t.Fatalf("topk on tokened stream: %d", code)
	}
	code, body = get(t, ts.URL+"/v1/streams")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if strings.Contains(string(body), "s3cret") {
		t.Fatalf("stream listing leaks the token: %s", body)
	}
	if !strings.Contains(string(body), `"auth_required":true`) {
		t.Fatalf("stream listing does not flag auth: %s", body)
	}

	// Admin: checkpoint needs the token; the envelope is token-redacted.
	if code := authed("POST", ts.URL+"/v1/admin/checkpoint?stream=sec", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("bare checkpoint: %d, want 401", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/admin/checkpoint?stream=sec", nil)
	req.Header.Set("Authorization", "Bearer s3cret-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed checkpoint: %d", resp.StatusCode)
	}
	env, err := decodeCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if env.Spec.Token != "" {
		t.Fatal("checkpoint envelope carries the bearer token")
	}
	if bytes.Contains(ckpt, []byte("s3cret")) {
		t.Fatal("checkpoint bytes leak the token")
	}

	// Restore over the tokened stream: 401 bare, 200 with the token, and
	// the stream keeps its token afterwards (the redacted envelope does
	// not strip auth).
	if code := authed("POST", ts.URL+"/v1/admin/restore", string(ckpt), nil); code != http.StatusUnauthorized {
		t.Fatalf("bare restore: %d, want 401", code)
	}
	if code := authed("POST", ts.URL+"/v1/admin/restore", string(ckpt), bearer); code != http.StatusOK {
		t.Fatalf("authed restore: %d, want 200", code)
	}
	if code := authed("POST", ts.URL+"/v1/ingest?stream=sec", burst("z", 90, 2), nil); code != http.StatusUnauthorized {
		t.Fatalf("post-restore bare ingest: %d, want 401 (token lost in restore)", code)
	}

	// Delete: 401 bare, 200 with the token.
	if code := authed("DELETE", ts.URL+"/v1/streams/sec", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("bare delete: %d, want 401", code)
	}
	if code := authed("DELETE", ts.URL+"/v1/streams/sec", "", bearer); code != http.StatusOK {
		t.Fatalf("authed delete: %d, want 200", code)
	}

	// Tokenless streams remain fully open.
	open, _ := newTestServer(t, Config{Streams: []StreamSpec{pushSpec("open")}})
	_ = open
}

// TestNotifyExplainGains: with per-seed attribution enabled, keyframes
// carry greedy-ranked entries whose gains sum to the solution value —
// the inputs that make rank_changed / per-seed gain_changed live.
func TestNotifyExplainGains(t *testing.T) {
	spec := StreamSpec{
		Name:     "gains",
		Tracker:  tdnstream.TrackerSpec{Algo: "histapprox", K: 3, Eps: 0.2, L: 100},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 50},
	}
	s, ts := newTestServer(t, Config{
		Streams:            []StreamSpec{spec},
		Notify:             notify.Config{KeyframeEvery: 1},
		NotifyExplainGains: true,
	})
	w, _ := s.stream("gains")
	body := burst("a", 1, 5) + burst("b", 2, 3) + burst("c", 3, 2)
	post(t, ts.URL+"/v1/ingest?stream=gains", ctNDJSON, body)
	waitProcessed(t, w, 10)

	sub := sseSubscribe(t, ts.URL+"/v1/streams/gains/events?since=0", "")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no gain-attributed keyframe arrived")
		}
		ev := sub.next(t)
		if ev.Type != notify.Keyframe || len(ev.TopK) == 0 {
			continue
		}
		sum := 0
		for _, e := range ev.TopK {
			sum += e.Gain
		}
		if sum != ev.Value {
			t.Fatalf("keyframe gains sum to %d, value %d: %+v", sum, ev.Value, ev.TopK)
		}
		if ev.TopK[0].Gain < ev.TopK[len(ev.TopK)-1].Gain {
			t.Fatalf("keyframe entries not in greedy rank order: %+v", ev.TopK)
		}
		return
	}
}

// TestConcurrentIngestAndSubscriberChurn is the -race exercise for the
// push path: parallel producers drive an arrival-mode stream while SSE
// subscribers connect, read a little, and churn away.
func TestConcurrentIngestAndSubscriberChurn(t *testing.T) {
	spec := StreamSpec{
		Name:     "churn",
		Tracker:  tdnstream.TrackerSpec{Algo: "sieveadn", K: 5, Eps: 0.3},
		Lifetime: tdnstream.LifetimeSpec{Policy: "constant", Window: 500},
		TimeMode: TimeArrival,
	}
	s, ts := newTestServer(t, Config{
		Streams:  []StreamSpec{spec},
		MaxChunk: 64, QueueDepth: 256,
		Notify: notify.Config{SubscriberBuffer: 8}, // small: force drop coverage
	})
	in, err := tdnstream.Dataset("twitter-higgs", 1500)
	if err != nil {
		t.Fatal(err)
	}

	const producers, churns = 3, 12
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			part := in[p*len(in)/producers : (p+1)*len(in)/producers]
			for i := 0; i < len(part); i += 50 {
				end := min(i+50, len(part))
				var b strings.Builder
				for _, x := range part[i:end] {
					fmt.Fprintf(&b, "{\"src\":\"n%d\",\"dst\":\"n%d\"}\n", x.Src, x.Dst)
				}
				resp, err := http.Post(ts.URL+"/v1/ingest?stream=churn", ctNDJSON, strings.NewReader(b.String()))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(p)
	}
	var subWG sync.WaitGroup
	for c := 0; c < churns; c++ {
		subWG.Add(1)
		go func(c int) {
			defer subWG.Done()
			req, err := http.NewRequest("GET", ts.URL+"/v1/streams/churn/events", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("subscriber %d: status %d", c, resp.StatusCode)
				return
			}
			// Read a few KB (some subscribers linger, some bail at once).
			io.CopyN(io.Discard, resp.Body, int64(256*(c+1)))
		}(c)
	}
	wg.Wait()
	subWG.Wait()
	// The stream survived the churn: metrics and a final answer render.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "influtrackd_notify_events_total{stream=\"churn\"}") {
		t.Fatalf("metrics after churn: %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
