package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// drainStall bounds how long a run waits for a sent batch to become
// visible before it fails.
const drainStall = 30 * time.Second

// target is a serving surface the closed loop drives: the spawned daemon
// over loopback, or a server's handler in-process.
type target interface {
	// ingest POSTs one NDJSON body and returns the status and the
	// accepted record count.
	ingest(body []byte) (status, accepted int, err error)
	// topk GETs the stream's current answer.
	topk() (topkAnswer, error)
}

// topkAnswer is the part of a /v1/topk answer the benchmark reads.
type topkAnswer struct {
	Processed uint64 `json:"processed"`
	Value     int    `json:"value"`
	Seeds     []struct {
		Label string `json:"label"`
	} `json:"seeds"`
}

// loopResult is one closed-loop run's raw samples and counts.
type loopResult struct {
	batches   int             // leading request batches acknowledged with 200
	records   int             // records in those batches
	elapsed   time.Duration   // first send until the last batch is visible
	ack       []time.Duration // per batch: send until the 200
	fresh     []time.Duration // per batch: send until an answer covers it
	query     []time.Duration // per /v1/topk answer
	attempted int             // requests of both kinds
	failed    int             // non-200 answers and transport errors
	errs      []string        // what failed
	final     topkAnswer      // the first answer covering every batch
}

// closedLoop drives tgt with in's request batches. One producer keeps at
// most window batches sent but not yet visible; one poller reads /v1/topk
// every pollEvery and marks a batch visible once an answer's processed
// count covers it. The producer stops at the first failure, or early once
// sendFor has passed so that a slow build still ends in bounded time; the
// loop returns when every batch sent is visible.
func closedLoop(tgt target, in *input, window int, pollEvery, sendFor time.Duration, tr *tracer, layer string) loopResult {
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		res      loopResult
		sentAt   = make([]time.Time, len(in.bodies))
		issued   int  // batches handed to the producer's connection
		visible  int  // batches an answer has covered
		finished bool // the producer is done sending
		abort    bool // a request failed or the drain stalled
		lastSeen time.Time
	)
	fail := func(msg string) { // mu held
		res.failed++
		res.errs = append(res.errs, layer+": "+msg)
		abort = true
		cond.Broadcast()
	}

	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		progress := time.Now()
		for {
			id := tr.begin(layer+".topk", -1, -1)
			t0 := time.Now()
			ans, err := tgt.topk()
			t1 := time.Now()
			tr.end(id)
			mu.Lock()
			res.attempted++
			if err != nil {
				fail("topk: " + err.Error())
			} else {
				res.query = append(res.query, t1.Sub(t0))
				seen := visible
				for visible < issued && uint64(in.cum[visible]) <= ans.Processed {
					res.fresh = append(res.fresh, t1.Sub(sentAt[visible]))
					visible++
					lastSeen = t1
				}
				switch {
				case finished && visible == issued:
					res.final = ans
					mu.Unlock()
					return
				case visible > seen || visible == issued:
					progress = t1
				case t1.Sub(progress) > drainStall:
					fail(fmt.Sprintf("no progress for %v: %d of %d batches visible", drainStall, visible, issued))
				}
				cond.Broadcast()
			}
			stop := abort
			mu.Unlock()
			if stop {
				return
			}
			time.Sleep(pollEvery)
		}
	}()

	start := time.Now()
	for i := range in.bodies {
		mu.Lock()
		for !abort && i-visible >= window {
			cond.Wait()
		}
		if abort || (i > 0 && time.Since(start) >= sendFor) {
			mu.Unlock()
			break
		}
		sentAt[i] = time.Now()
		if i == 0 {
			start = sentAt[0]
		}
		issued = i + 1
		mu.Unlock()

		id := tr.begin(layer+".ingest", -1, i)
		status, accepted, err := tgt.ingest(in.bodies[i])
		tr.end(id)
		ack := time.Since(sentAt[i])

		mu.Lock()
		res.attempted++
		switch {
		case err != nil:
			fail(fmt.Sprintf("ingest batch %d: %v", i, err))
		case status != http.StatusOK:
			fail(fmt.Sprintf("ingest batch %d: status %d", i, status))
		case accepted != len(in.batches[i]):
			fail(fmt.Sprintf("ingest batch %d: accepted %d of %d", i, accepted, len(in.batches[i])))
		default:
			res.ack = append(res.ack, ack)
			res.batches = i + 1
			res.records = in.cum[i]
		}
		mu.Unlock()
	}
	mu.Lock()
	finished = true
	cond.Broadcast()
	mu.Unlock()
	poller.Wait()
	if !abort {
		res.elapsed = lastSeen.Sub(start)
	}
	return res
}

// httpTarget drives the spawned daemon over two loopback connections,
// one per loop role.
type httpTarget struct {
	base, stream         string
	ingestConn, pollConn *http.Client
}

func (t *httpTarget) ingest(body []byte) (int, int, error) {
	req, err := http.NewRequest(http.MethodPost, t.base+"/v1/ingest?stream="+t.stream, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := t.ingestConn.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	return ingestAnswer(resp.StatusCode, resp.Body)
}

func (t *httpTarget) topk() (topkAnswer, error) {
	resp, err := t.pollConn.Get(t.base + "/v1/topk?stream=" + t.stream)
	if err != nil {
		return topkAnswer{}, err
	}
	defer resp.Body.Close()
	return topkOf(resp.StatusCode, resp.Body)
}

// handlerTarget sends the same requests to a server's handler in-process,
// with no sockets.
type handlerTarget struct {
	h      http.Handler
	stream string
}

func (t handlerTarget) ingest(body []byte) (int, int, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest?stream="+t.stream, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return ingestAnswer(rec.Code, rec.Body)
}

func (t handlerTarget) topk() (topkAnswer, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/topk?stream="+t.stream, nil))
	return topkOf(rec.Code, rec.Body)
}

// ingestAnswer reads an ingest answer's accepted count. The body is read
// to its end so the connection can carry the next request.
func ingestAnswer(status int, body io.Reader) (int, int, error) {
	raw, err := io.ReadAll(body)
	if err != nil {
		return status, 0, err
	}
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return status, 0, fmt.Errorf("ingest answer: %w", err)
	}
	return status, r.Accepted, nil
}

// topkOf decodes a /v1/topk answer; anything but a 200 is an error.
func topkOf(status int, body io.Reader) (topkAnswer, error) {
	raw, err := io.ReadAll(body)
	if err != nil {
		return topkAnswer{}, err
	}
	if status != http.StatusOK {
		return topkAnswer{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	var a topkAnswer
	if err := json.Unmarshal(raw, &a); err != nil {
		return topkAnswer{}, fmt.Errorf("topk answer: %w", err)
	}
	return a, nil
}
