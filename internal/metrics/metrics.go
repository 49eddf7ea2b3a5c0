// Package metrics provides the measurement primitives used across the
// reproduction: oracle-call counters and small streaming statistics.
//
// The paper evaluates computational efficiency primarily by the number of
// oracle calls — evaluations of the influence function f_t — because that
// count is independent of hardware and of whether an implementation is
// serial or parallel (§V-C). Every component that evaluates f_t holds a
// *Counter and increments it once per evaluation; experiment runners read
// and reset it between phases.
package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter counts oracle calls. It is safe for concurrent use because
// shard.Engine steps its partitions in goroutines that share one counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one call.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n calls.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the number of calls counted so far.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() uint64 { return c.n.Swap(0) }

// EWMA is an exponentially-weighted moving average stored as atomic
// float bits, so one goroutine can feed observations (a serving worker
// recording batch throughput) while others read the smoothed value (a
// /metrics scrape). The zero value is ready to use and reads as 0 until
// the first observation.
type EWMA struct {
	bits   atomic.Uint64
	lastNs atomic.Int64 // unix nanos of the most recent Observe; 0 = never
	// Alpha is the smoothing factor in (0, 1]; 0 means the default 0.2.
	// Set it before the first Observe, if at all.
	Alpha float64
	// HalfLife controls how fast ValueAt decays toward zero once
	// observations stop arriving; 0 means DefaultEWMAHalfLife. Set it
	// before the first read, if at all.
	HalfLife time.Duration
}

// DefaultEWMAHalfLife is the idle-decay half-life ValueAt uses when
// EWMA.HalfLife is unset: an idle source reads at half its last smoothed
// value after 5s and under 2% of it after 30s.
const DefaultEWMAHalfLife = 5 * time.Second

// Observe folds one observation into the average. The first observation
// initializes the average rather than being smoothed toward zero.
func (e *EWMA) Observe(v float64) {
	alpha := e.Alpha
	if alpha == 0 {
		alpha = 0.2
	}
	for {
		old := e.bits.Load()
		next := v
		if old != 0 {
			next = alpha*v + (1-alpha)*math.Float64frombits(old)
		}
		// Bit pattern 0 is the "no observation yet" sentinel, so an
		// observed average of exactly 0.0 is stored as -0.0 — it reads
		// back as 0 and behaves as 0 in the smoothing arithmetic, but
		// does not reset the initialization state.
		bits := math.Float64bits(next)
		if bits == 0 {
			bits = math.Float64bits(math.Copysign(0, -1))
		}
		if e.bits.CompareAndSwap(old, bits) {
			e.lastNs.Store(time.Now().UnixNano())
			return
		}
	}
}

// Value returns the current smoothed value (0 before any observation).
// It holds the last observed average forever; rate gauges that should
// read as quiet once their source goes idle want ValueAt instead.
func (e *EWMA) Value() float64 { return math.Float64frombits(e.bits.Load()) }

// ValueAt returns the smoothed value decayed for the time elapsed between
// the most recent observation and now: halving once per HalfLife, so an
// idle source reads asymptotically as zero instead of holding its last
// busy value. While observations keep arriving the elapsed time is tiny
// and ValueAt tracks Value. now values at or before the last observation
// (including the zero time) read undecayed.
func (e *EWMA) ValueAt(now time.Time) float64 {
	v := math.Float64frombits(e.bits.Load())
	if v == 0 {
		return 0
	}
	last := e.lastNs.Load()
	if last == 0 {
		return v
	}
	dt := now.UnixNano() - last
	if dt <= 0 {
		return v
	}
	hl := e.HalfLife
	if hl <= 0 {
		hl = DefaultEWMAHalfLife
	}
	return v * math.Exp2(-float64(dt)/float64(hl))
}

// Series accumulates a numeric series (one point per time step) and offers
// the aggregations the paper plots: running values, cumulative sums, and
// time-averaged means.
type Series struct {
	vals []float64
}

// Append adds one observation.
func (s *Series) Append(v float64) { s.vals = append(s.vals, v) }

// Len reports the number of observations.
func (s *Series) Len() int { return len(s.vals) }

// At returns the i-th observation.
func (s *Series) At(i int) float64 { return s.vals[i] }

// Values returns the backing slice (not a copy).
func (s *Series) Values() []float64 { return s.vals }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Cumulative returns the running prefix sums as a new series.
func (s *Series) Cumulative() *Series {
	out := &Series{vals: make([]float64, len(s.vals))}
	var sum float64
	for i, v := range s.vals {
		sum += v
		out.vals[i] = sum
	}
	return out
}

// RatioTo returns the pointwise ratio s[i]/other[i]; points where other is
// zero yield 0. Series must have equal length.
func (s *Series) RatioTo(other *Series) *Series {
	if len(s.vals) != len(other.vals) {
		panic("metrics: RatioTo on series of different lengths")
	}
	out := &Series{vals: make([]float64, len(s.vals))}
	for i, v := range s.vals {
		if other.vals[i] != 0 {
			out.vals[i] = v / other.vals[i]
		}
	}
	return out
}

// Downsample keeps every stride-th point (always keeping the last), which
// the figure printers use so 5000-step series stay plottable as TSV.
func (s *Series) Downsample(stride int) *Series {
	if stride <= 1 || len(s.vals) == 0 {
		return &Series{vals: append([]float64(nil), s.vals...)}
	}
	out := &Series{}
	for i := 0; i < len(s.vals); i += stride {
		out.Append(s.vals[i])
	}
	if (len(s.vals)-1)%stride != 0 {
		out.Append(s.vals[len(s.vals)-1])
	}
	return out
}
