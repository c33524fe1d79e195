// Package progress evaluates the progress properties of Section 2.2
// and their bounded variants on completion histories produced by the
// simulator.
//
// Terminology (following Herlihy–Shavit "On the Nature of Progress"
// as adopted by the paper):
//
//   - minimal progress: in every suffix of the history, some pending
//     active invocation completes;
//   - maximal progress: in every suffix, every pending active
//     invocation completes;
//   - B-bounded minimal progress: whenever an invocation is pending,
//     some invocation completes within the next B system steps;
//   - B-bounded maximal progress: every active invocation completes
//     within B system steps.
//
// On a finite trace these are necessarily *witness* checks: a finite
// execution can refute a bound (a gap larger than B) and can exhibit
// the empirical bounds, but cannot prove an ∀-property of infinite
// executions. The checkers therefore report empirical bounds, which
// is exactly what the experiments need (E8, E9): a bound B is refuted
// when the reported bound exceeds it.
package progress

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Event is one completion in a history: process PID returned from an
// invocation at system step Step.
type Event struct {
	Step uint64
	PID  int
}

// Trace is a completion history over a finite execution of Steps
// system steps by N processes. Events must be ordered by Step;
// NewTrace validates this.
type Trace struct {
	N      int
	Steps  uint64
	Events []Event
}

// Trace construction errors.
var (
	ErrUnordered  = errors.New("progress: events out of order")
	ErrBadEvent   = errors.New("progress: event outside execution")
	ErrEmptyTrace = errors.New("progress: empty trace")
)

// NewTrace validates and wraps a completion history. The events slice
// is copied.
func NewTrace(n int, steps uint64, events []Event) (*Trace, error) {
	if n < 1 {
		return nil, errors.New("progress: need at least one process")
	}
	es := make([]Event, len(events))
	copy(es, events)
	var prev uint64
	for i, e := range es {
		if e.PID < 0 || e.PID >= n {
			return nil, fmt.Errorf("%w: pid %d of %d", ErrBadEvent, e.PID, n)
		}
		if e.Step == 0 || e.Step > steps {
			return nil, fmt.Errorf("%w: step %d of %d", ErrBadEvent, e.Step, steps)
		}
		if i > 0 && e.Step < prev {
			return nil, ErrUnordered
		}
		prev = e.Step
	}
	return &Trace{N: n, Steps: steps, Events: es}, nil
}

// Collector accumulates completion events; plug its Observe method
// into machine.Sim.SetCompletionHook.
type Collector struct {
	events []Event
}

// Observe records one completion event.
func (c *Collector) Observe(step uint64, pid int) {
	c.events = append(c.events, Event{Step: step, PID: pid})
}

// Trace finalises the collection into a validated Trace.
func (c *Collector) Trace(n int, steps uint64) (*Trace, error) {
	return NewTrace(n, steps, c.events)
}

// Len returns the number of events collected so far.
func (c *Collector) Len() int { return len(c.events) }

// MinimalProgressBound returns the empirical minimal-progress bound of
// the trace: the largest number of system steps any point of the
// execution had to wait for the next completion by anyone, including
// the leading segment before the first completion and the trailing
// segment after the last. A bounded lock-free algorithm with bound B
// never exhibits a value above B.
func (t *Trace) MinimalProgressBound() (uint64, error) {
	if len(t.Events) == 0 {
		if t.Steps == 0 {
			return 0, ErrEmptyTrace
		}
		return t.Steps, nil
	}
	bound := t.Events[0].Step // leading gap
	for i := 1; i < len(t.Events); i++ {
		if g := t.Events[i].Step - t.Events[i-1].Step; g > bound {
			bound = g
		}
	}
	if g := t.Steps - t.Events[len(t.Events)-1].Step; g > bound {
		bound = g
	}
	return bound, nil
}

// MaximalProgressBound returns the empirical maximal-progress bound:
// the largest number of system steps any single process went between
// completions (again including leading and trailing segments). A
// process with no completions contributes the full execution length.
func (t *Trace) MaximalProgressBound() (uint64, error) {
	if t.Steps == 0 {
		return 0, ErrEmptyTrace
	}
	last := make([]uint64, t.N) // last completion step, 0 = none yet
	var bound uint64
	for _, e := range t.Events {
		if g := e.Step - last[e.PID]; g > bound {
			bound = g
		}
		last[e.PID] = e.Step
	}
	for pid := 0; pid < t.N; pid++ {
		if g := t.Steps - last[pid]; g > bound {
			bound = g
		}
	}
	return bound, nil
}

// CompletionsPerProcess returns the per-process completion counts.
func (t *Trace) CompletionsPerProcess() []int {
	counts := make([]int, t.N)
	for _, e := range t.Events {
		counts[e.PID]++
	}
	return counts
}

// Starved returns the processes with no completion in the trace —
// the finite-execution witness of a wait-freedom violation used by E9.
func (t *Trace) Starved() []int {
	counts := t.CompletionsPerProcess()
	var out []int
	for pid, c := range counts {
		if c == 0 {
			out = append(out, pid)
		}
	}
	return out
}

// GapQuantile returns the q-quantile of the per-process
// inter-completion gap distribution — the latency-distribution view of
// wait-free behaviour in practice (cf. the stack latency histogram the
// paper cites from Al-Bahra [1, Fig. 6]).
func (t *Trace) GapQuantile(q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, errors.New("progress: quantile out of [0,1]")
	}
	var gaps []float64
	last := make(map[int]uint64, t.N)
	for _, e := range t.Events {
		if prev, ok := last[e.PID]; ok {
			gaps = append(gaps, float64(e.Step-prev))
		}
		last[e.PID] = e.Step
	}
	if len(gaps) == 0 {
		return 0, ErrEmptyTrace
	}
	sort.Float64s(gaps)
	if len(gaps) == 1 {
		return gaps[0], nil
	}
	pos := q * float64(len(gaps)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return gaps[lo], nil
	}
	frac := pos - float64(lo)
	return gaps[lo]*(1-frac) + gaps[hi]*frac, nil
}

// Theorem3ExpectedBound returns the expected maximal-progress bound
// (1/θ)^T of Theorem 3: under a stochastic scheduler with threshold θ,
// an algorithm with minimal-progress bound T has expected completion
// time at most (1/θ)^T per operation. The value grows astronomically
// fast — that is the theorem's point: it proves wait-freedom with
// probability 1, while the SCU analysis (Theorems 4–5) gives the
// pragmatic bound. Returns +Inf on overflow.
func Theorem3ExpectedBound(theta float64, t uint64) (float64, error) {
	if theta <= 0 || theta > 1 {
		return 0, errors.New("progress: theta must be in (0, 1]")
	}
	return math.Pow(1/theta, float64(t)), nil
}
