package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch, Parent indexes the enclosing span (-1 for
// none), and Batch is the request batch the call worked on — the same id
// in every rung — or -1 when the call serves no one batch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

// tracer keeps a traced run's client-side spans in memory until the run
// writes them out. A nil tracer records nothing, which keeps untraced
// runs free of span work.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timeCall runs fn inside a span and returns how long it took.
func timeCall(t *tracer, name string, parent, batch int, fn func()) time.Duration {
	id := t.begin(name, parent, batch)
	start := time.Now()
	fn()
	took := time.Since(start)
	t.end(id)
	return took
}

// selfTime totals the spans of one name.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes totals, per span name, the spans' durations and their self
// time: each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimesOf(t.spans)
}

func selfTimesOf(spans []span) []selfTime {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []selfTime
	index := make(map[string]int)
	for i, s := range spans {
		j, ok := index[s.Name]
		if !ok {
			j = len(out)
			index[s.Name] = j
			out = append(out, selfTime{Name: s.Name})
		}
		d := s.End - s.Start
		out[j].Count++
		out[j].TotalMs += float64(d) / 1e6
		out[j].SelfMs += float64(d-covered(s, kids[i])) / 1e6
	}
	return out
}

// covered is how much of p its children cover, overlaps counted once.
func covered(p span, kids []span) int64 {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		if lo, hi := max(k.Start, p.Start), min(k.End, p.End); lo < hi {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum int64
	lo, hi := int64(0), int64(-1) // the merged run so far; empty while hi < lo
	for _, iv := range ivs {
		if iv.lo > hi {
			if hi > lo {
				sum += hi - lo
			}
			lo, hi = iv.lo, iv.hi
		} else if iv.hi > hi {
			hi = iv.hi
		}
	}
	if hi > lo {
		sum += hi - lo
	}
	return sum
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
