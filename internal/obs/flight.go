package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Flight-recorder event kinds. Each names one lifecycle transition the
// serving stack considers significant enough to reconstruct an incident
// from. Kinds are stable strings (they appear in diagnostics bundles and
// CI assertions), not iota values.
const (
	EventWALDegraded     = "wal_degraded"       // WAL append/commit fault degraded a stream
	EventWALRepaired     = "wal_repaired"       // background repair rotated past the damage
	EventWALRotated      = "wal_rotated"        // repair rotated the log to a fresh segment
	EventWALTruncated    = "wal_truncated"      // a checkpoint truncated the segments its snapshot covers
	EventWALFenced       = "wal_fenced"         // ack-ambiguous commit tokens were fenced
	EventWALTornTail     = "wal_torn_tail"      // replay stopped at a torn/corrupt frame
	EventCheckpointSaved = "checkpoint_saved"   // one stream's checkpoint snapshot logged and synced
	EventRestore         = "checkpoint_restore" // an admin restore replaced live state
	EventReplayDone      = "wal_replay_done"    // boot replay reconstructed pre-crash state
	EventSubscriberEvict = "subscriber_evicted" // notify hub dropped a slow subscriber
	EventAuditFloor      = "audit_floor_breach" // quality ratio crossed below the audit floor
	EventAuditRecover    = "audit_floor_recover"
	EventMemWatermark    = "mem_watermark_crossed" // engine footprint crossed -mem-watermark
	EventMemRecover      = "mem_watermark_recover"
	EventFaultRuleHit    = "fault_rule_hit" // an injected fault rule fired
	EventWorkerStall     = "worker_stall"   // watchdog: queued work but no recent publish
	EventLogWarn         = "log_warn"       // tee handler: a Warn+ slog record
	EventPanic           = "panic"          // a recovered panic (postmortem written)
)

// FlightEvent is one recorded lifecycle transition. Seq is assigned from
// a process-wide monotone counter at Record time, so events from
// different goroutines interleave in a single total order; Attrs carries
// kind-specific key/value detail (queue depths, errnos, thresholds).
type FlightEvent struct {
	Seq    uint64            `json:"seq"`
	Time   time.Time         `json:"time"`
	Kind   string            `json:"kind"`
	Stream string            `json:"stream,omitempty"`
	Cause  string            `json:"cause,omitempty"`
	Errno  string            `json:"errno,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Flight is the black-box flight recorder: a bounded in-memory ring of
// typed lifecycle events. Recording is a sequence fetch-add plus a short
// mutex-guarded ring store — cheap enough for transition sites that sit
// near the hot path (transitions are rare; the recorder just must never
// make them slow or lossy in ordering). A nil *Flight is a valid no-op
// receiver, so call sites need no branching when the recorder is
// disabled.
type Flight struct {
	recorded atomic.Uint64 // total events ever recorded
	evicted  atomic.Uint64 // events overwritten by ring wraparound
	mu       sync.Mutex
	seq      uint64 // last assigned sequence number, taken with the slot so ring order is Seq order
	ring     []FlightEvent
	next     int  // ring slot the next event lands in
	wrapped  bool // ring has overwritten at least one event
	clock    func() time.Time
}

// NewFlight returns a recorder holding the most recent size events
// (minimum 16). clock is a test seam; nil means time.Now.
func NewFlight(size int, clock func() time.Time) *Flight {
	if size < 16 {
		size = 16
	}
	if clock == nil {
		clock = time.Now
	}
	return &Flight{ring: make([]FlightEvent, size), clock: clock}
}

// Record stores one event and returns its sequence number. attrs are
// alternating key/value pairs (an odd trailing key is dropped). Safe for
// concurrent use; nil-safe.
func (f *Flight) Record(kind, stream, cause, errno string, attrs ...string) uint64 {
	if f == nil {
		return 0
	}
	ev := FlightEvent{
		Time:   f.clock(),
		Kind:   kind,
		Stream: stream,
		Cause:  cause,
		Errno:  errno,
	}
	if len(attrs) >= 2 {
		ev.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			ev.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	f.recorded.Add(1)
	f.mu.Lock()
	if f.wrapped {
		f.evicted.Add(1)
	}
	f.seq++
	ev.Seq = f.seq
	f.ring[f.next] = ev
	f.next++
	if f.next == len(f.ring) {
		f.next, f.wrapped = 0, true
	}
	f.mu.Unlock()
	return ev.Seq
}

// Events returns the retained events oldest-first. The snapshot is a
// copy; callers may hold it across further recording.
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []FlightEvent
	if f.wrapped {
		out = make([]FlightEvent, 0, len(f.ring))
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring[:f.next]...)
	}
	return out
}

// Recorded returns the total number of events ever recorded (including
// ones since evicted by ring wraparound).
func (f *Flight) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.recorded.Load()
}

// Evicted returns how many events the bounded ring has overwritten.
func (f *Flight) Evicted() uint64 {
	if f == nil {
		return 0
	}
	return f.evicted.Load()
}

// WriteJSON dumps the retained events plus recorder totals as one JSON
// document — the flight.json member of a diagnostics bundle.
func (f *Flight) WriteJSON(w io.Writer) error {
	doc := struct {
		Recorded uint64        `json:"recorded"`
		Evicted  uint64        `json:"evicted"`
		Capacity int           `json:"capacity"`
		Events   []FlightEvent `json:"events"`
	}{Recorded: f.Recorded(), Evicted: f.Evicted(), Events: f.Events()}
	if f != nil {
		doc.Capacity = len(f.ring)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ---- slog tee ---------------------------------------------------------

// TeeHandler is a slog.Handler that forwards every record to its base
// handler and mirrors Warn-and-above records into a Flight ring, so
// anything instrumented only via logging still lands in the black box.
// The mirrored event's kind is "log_warn", its cause is the log message,
// and its attrs are the record's flattened attributes (a "stream" attr
// is lifted into the event's Stream field, an "error" attr into Errno).
type TeeHandler struct {
	base   slog.Handler
	flight *Flight
	attrs  []slog.Attr // accumulated WithAttrs context
	group  string
}

// NewTeeHandler wraps base so Warn+ records are mirrored into flight.
func NewTeeHandler(base slog.Handler, flight *Flight) *TeeHandler {
	return &TeeHandler{base: base, flight: flight}
}

func (h *TeeHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.base.Enabled(ctx, level)
}

func (h *TeeHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelWarn && h.flight != nil {
		var stream, errno string
		var kvs []string
		flatten := func(prefix string, a slog.Attr) {
			key := a.Key
			if prefix != "" {
				key = prefix + "." + key
			}
			val := a.Value.Resolve().String()
			switch key {
			case "stream":
				stream = val
			case "error", "err":
				errno = val
			default:
				kvs = append(kvs, key, val)
			}
		}
		for _, a := range h.attrs {
			flatten(h.group, a)
		}
		r.Attrs(func(a slog.Attr) bool {
			flatten(h.group, a)
			return true
		})
		kvs = append(kvs, "level", r.Level.String())
		h.flight.Record(EventLogWarn, stream, r.Message, errno, kvs...)
	}
	return h.base.Handle(ctx, r)
}

func (h *TeeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	merged = append(merged, h.attrs...)
	merged = append(merged, attrs...)
	return &TeeHandler{base: h.base.WithAttrs(attrs), flight: h.flight, attrs: merged, group: h.group}
}

func (h *TeeHandler) WithGroup(name string) slog.Handler {
	g := name
	if h.group != "" {
		g = h.group + "." + name
	}
	return &TeeHandler{base: h.base.WithGroup(name), flight: h.flight, attrs: h.attrs, group: g}
}
