package native

import (
	"errors"
	"sync"
	"time"

	"pwf/internal/obs"
)

// RateResult reports a completion-rate measurement (Appendix B): the
// number of completed operations versus the total number of
// shared-memory steps taken by all workers.
type RateResult struct {
	Workers int
	Ops     uint64
	Steps   uint64
	Elapsed time.Duration
}

// Rate returns completions per shared-memory step — the Figure 5
// y-axis, which approximates the inverse of the system latency.
func (r RateResult) Rate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Steps)
}

// Op performs one operation and returns the number of shared-memory
// steps it took.
type Op func() (steps uint64)

// MeasureRate runs `workers` goroutines, each executing op
// opsPerWorker times, and aggregates completions and steps. makeOp is
// invoked once per worker so per-worker state (e.g. RNG) stays local.
func MeasureRate(workers, opsPerWorker int, makeOp func(worker int) Op) (RateResult, error) {
	if workers < 1 {
		return RateResult{}, ErrBadWorkers
	}
	if opsPerWorker < 1 {
		return RateResult{}, errors.New("native: need at least one op per worker")
	}
	if makeOp == nil {
		return RateResult{}, errors.New("native: nil op factory")
	}

	var (
		wg       sync.WaitGroup
		perSteps = make([]uint64, workers)
		start    = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		op := makeOp(w)
		if op == nil {
			return RateResult{}, errors.New("native: op factory returned nil")
		}
		wg.Add(1)
		go func(w int, op Op) {
			defer wg.Done()
			<-start
			var steps uint64
			for i := 0; i < opsPerWorker; i++ {
				steps += op()
			}
			perSteps[w] = steps
		}(w, op)
	}
	began := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(began)

	res := RateResult{
		Workers: workers,
		Ops:     uint64(workers) * uint64(opsPerWorker),
		Elapsed: elapsed,
	}
	for _, s := range perSteps {
		res.Steps += s
	}
	return res, nil
}

// MeasureCASCounterRate measures the CAS-loop counter of Appendix B.
// A non-nil st records every worker's operations (steps, retry
// distribution, CAS failures) concurrently; nil leaves the counter
// uninstrumented. The same holds for the other Measure*Rate functions.
func MeasureCASCounterRate(workers, opsPerWorker int, st *obs.OpStats) (RateResult, error) {
	var c CASCounter
	c.Instrument(st)
	return MeasureRate(workers, opsPerWorker, func(int) Op {
		return func() uint64 {
			_, steps := c.Inc()
			return steps
		}
	})
}

// MeasureAddCounterRate measures the wait-free fetch-and-add baseline
// (rate exactly 1, independent of contention).
func MeasureAddCounterRate(workers, opsPerWorker int, st *obs.OpStats) (RateResult, error) {
	var c AddCounter
	c.Instrument(st)
	return MeasureRate(workers, opsPerWorker, func(int) Op {
		return func() uint64 {
			_, steps := c.Inc()
			return steps
		}
	})
}

// MeasureStackRate measures a Treiber stack under an alternating
// push/pop workload.
func MeasureStackRate(workers, opsPerWorker int, st *obs.OpStats) (RateResult, error) {
	var s Stack[int]
	s.Instrument(st)
	return MeasureRate(workers, opsPerWorker, func(w int) Op {
		push := true
		return func() uint64 {
			var steps uint64
			if push {
				steps = s.Push(w)
			} else {
				_, _, steps = s.Pop()
			}
			push = !push
			return steps
		}
	})
}

// MeasureQueueRate measures a Michael–Scott queue under an
// alternating enqueue/dequeue workload.
func MeasureQueueRate(workers, opsPerWorker int, st *obs.OpStats) (RateResult, error) {
	q := NewQueue[int]()
	q.Instrument(st)
	return MeasureRate(workers, opsPerWorker, func(w int) Op {
		enq := true
		return func() uint64 {
			var steps uint64
			if enq {
				steps = q.Enqueue(w)
			} else {
				_, _, steps = q.Dequeue()
			}
			enq = !enq
			return steps
		}
	})
}
