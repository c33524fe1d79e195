package obs

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a wait-free monotonic event counter. Inc and Add are
// single hardware fetch-and-add instructions — the wait-free
// primitive the paper's Appendix B measures — so recording into a
// shared Counter from many goroutines completes in a bounded number
// of steps regardless of contention. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// histBuckets is one bucket per possible bit length of a uint64 (0
// through 64): bucket 0 holds the value 0, bucket k >= 1 holds values
// in [2^(k-1), 2^k).
const histBuckets = 65

// Histogram is a wait-free log-bucketed histogram of uint64
// observations: bucket k counts values with bit length k, i.e.
// power-of-two ranges. Observe is three atomic adds — no locks, no
// CAS loops — so it is safe and wait-free from any number of
// goroutines. The zero value is ready to use.
//
// Log bucketing matches the quantities recorded here (retry counts,
// steps per operation, inter-completion gaps), whose interesting
// structure is multiplicative: the paper's completion-time tails decay
// geometrically (Theorem 3), so constant relative resolution is the
// right trade against a fixed 65-counter footprint.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket is one non-empty histogram bucket covering [Lo, Hi]
// inclusive.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, shaped
// for JSON export. Concurrent Observes may land between bucket reads,
// so Count can differ from the bucket total by in-flight updates; each
// individual value is monotone and exact.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for k := 0; k < histBuckets; k++ {
		c := h.buckets[k].Load()
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, Bucket{Lo: bucketLo(k), Hi: bucketHi(k), Count: c})
	}
	return s
}

func bucketLo(k int) uint64 {
	if k == 0 {
		return 0
	}
	return 1 << (k - 1)
}

func bucketHi(k int) uint64 {
	if k == 0 {
		return 0
	}
	if k == 64 {
		return math.MaxUint64
	}
	return 1<<k - 1
}

// ErrNoObservations is returned by Quantile on a snapshot of a
// histogram that has recorded nothing: there is no distribution to
// query, and returning a number would present a fabricated bucket
// edge as if it were real data.
var ErrNoObservations = errors.New("obs: histogram has no observations")

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucketed
// counts, interpolating linearly within the containing bucket. The
// edges agree with stats.Quantile's conventions: q = 0 returns the
// lower edge of the lowest non-empty bucket, q = 1 the upper edge of
// the highest (== Max()), an empty snapshot returns an error rather
// than a value, and a NaN or out-of-range q is rejected.
func (s HistogramSnapshot) Quantile(q float64) (float64, error) {
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total == 0 {
		return 0, ErrNoObservations
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, fmt.Errorf("obs: quantile %v out of [0,1]", q)
	}
	rank := q * float64(total)
	var seen float64
	for _, b := range s.Buckets {
		c := float64(b.Count)
		if seen+c >= rank {
			frac := 0.0
			if c > 0 {
				frac = (rank - seen) / c
			}
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo), nil
		}
		seen += c
	}
	last := s.Buckets[len(s.Buckets)-1]
	return float64(last.Hi), nil
}

// Max returns an upper bound on the largest observation: the top edge
// of the highest non-empty bucket (0 with no observations).
func (s HistogramSnapshot) Max() uint64 {
	if len(s.Buckets) == 0 {
		return 0
	}
	return s.Buckets[len(s.Buckets)-1].Hi
}

// OpStats aggregates per-operation telemetry for a native concurrent
// structure: the operation count, the distribution of shared-memory
// steps per operation, the distribution of retry-loop iterations per
// operation, and the total number of failed CAS attempts. All fields
// are wait-free atomics, so one OpStats may be shared by every worker
// goroutine hammering a structure.
type OpStats struct {
	Ops         Counter
	CASFailures Counter
	Retries     Histogram
	Steps       Histogram
}

// ObserveOp records one completed operation that took steps
// shared-memory steps and retried retries times (one retry == one
// extra pass through the operation's loop, i.e. one failed CAS or one
// helping detour).
func (s *OpStats) ObserveOp(steps, retries uint64) {
	s.Ops.Inc()
	s.Steps.Observe(steps)
	s.Retries.Observe(retries)
	if retries > 0 {
		s.CASFailures.Add(retries)
	}
}

// Register names the stats' fields on reg under prefix: <prefix>_ops,
// <prefix>_cas_failures, <prefix>_retries and <prefix>_steps.
func (s *OpStats) Register(reg *Registry, prefix string) {
	reg.RegisterCounter(prefix+"_ops", &s.Ops)
	reg.RegisterCounter(prefix+"_cas_failures", &s.CASFailures)
	reg.RegisterHistogram(prefix+"_retries", &s.Retries)
	reg.RegisterHistogram(prefix+"_steps", &s.Steps)
}

// Metrics is a Recorder that aggregates simulator events into
// wait-free registry metrics instead of (or alongside) tracing them.
// It keeps no per-event mutable state beyond the atomics, so one
// Metrics may serve every job of a parallel sweep concurrently.
//
// The simulator does not feed a Metrics one event at a time when it
// is the whole recorder: package machine recognizes a *Metrics and
// counts into a per-job Tally on its fast path, scalar or
// replica-batched, and merges it in with Add at the end of every run
// and at least every 1<<16 steps. Record is the event path, taken
// when a Metrics sits behind Multi or another wrapper; both paths
// yield the same totals.
type Metrics struct {
	SchedSteps   *Counter
	Begins       *Counter
	CASSuccesses *Counter
	CASFailures  *Counter
	Retries      *Counter
	Completions  *Counter
	Crashes      *Counter
	// AttemptsPerOp is the distribution of CAS attempts per completed
	// operation — the simulator-side retry histogram.
	AttemptsPerOp *Histogram
}

// NewMetrics returns a Metrics recorder backed by reg under the sim_*
// namespace. Calling it twice with the same registry yields recorders
// sharing the same underlying metrics.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		SchedSteps:    reg.Counter("sim_sched_steps"),
		Begins:        reg.Counter("sim_op_begins"),
		CASSuccesses:  reg.Counter("sim_cas_successes"),
		CASFailures:   reg.Counter("sim_cas_failures"),
		Retries:       reg.Counter("sim_retries"),
		Completions:   reg.Counter("sim_completions"),
		Crashes:       reg.Counter("sim_crashes"),
		AttemptsPerOp: reg.Histogram("sim_cas_attempts_per_op"),
	}
}

// Record implements Recorder.
func (m *Metrics) Record(e Event) {
	switch e.Kind {
	case KindSched:
		m.SchedSteps.Inc()
	case KindBegin:
		m.Begins.Inc()
	case KindCAS:
		if e.OK {
			m.CASSuccesses.Inc()
		} else {
			m.CASFailures.Inc()
		}
	case KindRetry:
		m.Retries.Inc()
	case KindComplete:
		m.Completions.Inc()
		m.AttemptsPerOp.Observe(e.Attempts)
	case KindCrash:
		m.Crashes.Inc()
	}
}

// Tally is a plain, single-owner accumulator of what a Metrics counts:
// one field per counter, and the attempts histogram as local buckets
// indexed like Histogram's (by bits.Len64 of the value) plus their sum;
// their count is Completions. One simulator owns it and updates it
// without atomics; Metrics.Add publishes it.
type Tally struct {
	SchedSteps, Begins, CASSuccesses, CASFailures, Retries, Completions, Crashes uint64

	AttemptsSum   uint64
	AttemptsPerOp [histBuckets]uint64
}

// Add merges t into the shared metrics with one atomic add per
// non-zero field or bucket, so a flush costs nothing for what did not
// happen. The caller resets t afterwards.
func (m *Metrics) Add(t *Tally) {
	for _, f := range [...]struct {
		c *Counter
		v uint64
	}{
		{m.SchedSteps, t.SchedSteps},
		{m.Begins, t.Begins},
		{m.CASSuccesses, t.CASSuccesses},
		{m.CASFailures, t.CASFailures},
		{m.Retries, t.Retries},
		{m.Completions, t.Completions},
		{m.Crashes, t.Crashes},
	} {
		if f.v != 0 {
			f.c.Add(f.v)
		}
	}
	if t.Completions == 0 {
		return
	}
	h := m.AttemptsPerOp
	for k, c := range t.AttemptsPerOp {
		if c != 0 {
			h.buckets[k].Add(c)
		}
	}
	if t.AttemptsSum != 0 {
		h.sum.Add(t.AttemptsSum)
	}
	h.count.Add(t.Completions)
}
