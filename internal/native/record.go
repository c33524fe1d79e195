package native

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Schedule is a recovered total order of steps taken by concurrent
// workers, recorded with the paper's preferred method (Appendix A.2):
// each worker repeatedly performs an atomic fetch-and-increment on a
// shared ticket counter and logs the tickets it received; sorting the
// tickets recovers the global interleaving.
type Schedule struct {
	workers int
	order   []int32 // order[k] = worker that took global step k
}

// RecordSchedule runs `workers` goroutines, each drawing
// opsPerWorker tickets from a shared atomic counter, and returns the
// recovered schedule. To avoid start-up and drain skew, the recovered
// order is trimmed to the window in which every worker is active
// (from the latest first-ticket to the earliest last-ticket).
func RecordSchedule(workers, opsPerWorker int) (*Schedule, error) {
	if workers < 1 {
		return nil, ErrBadWorkers
	}
	if opsPerWorker < 1 {
		return nil, errors.New("native: need at least one op per worker")
	}

	var (
		ticket  atomic.Uint64
		wg      sync.WaitGroup
		tickets = make([][]uint64, workers)
		start   = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		tickets[w] = make([]uint64, opsPerWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			mine := tickets[w]
			for i := range mine {
				mine[i] = ticket.Add(1)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	total := uint64(workers) * uint64(opsPerWorker)
	order := make([]int32, total)
	var (
		windowLo uint64 = 1     // latest first ticket
		windowHi        = total // earliest last ticket
	)
	for w, mine := range tickets {
		if first := mine[0]; first > windowLo {
			windowLo = first
		}
		if last := mine[len(mine)-1]; last < windowHi {
			windowHi = last
		}
		for _, tk := range mine {
			order[tk-1] = int32(w)
		}
	}
	if windowHi < windowLo {
		// Degenerate (e.g. one op per worker): keep everything.
		windowLo, windowHi = 1, total
	}
	return &Schedule{
		workers: workers,
		order:   order[windowLo-1 : windowHi],
	}, nil
}

// Workers returns the number of workers in the schedule.
func (s *Schedule) Workers() int { return s.workers }

// Order returns a copy of the recovered step order (worker id per
// global step). Feed it to sched.NewReplay to drive the simulator
// with this real-machine schedule.
func (s *Schedule) Order() []int32 {
	out := make([]int32, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of recorded steps in the analysis window.
func (s *Schedule) Len() int { return len(s.order) }

// StepShares returns each worker's fraction of the recorded steps —
// the quantity of Figure 3.
func (s *Schedule) StepShares() []float64 {
	counts := make([]uint64, s.workers)
	for _, w := range s.order {
		counts[w]++
	}
	out := make([]float64, s.workers)
	if len(s.order) == 0 {
		return out
	}
	for w, c := range counts {
		out[w] = float64(c) / float64(len(s.order))
	}
	return out
}

// TransitionCounts returns the matrix T with T[i][j] counting steps by
// worker j immediately following a step by worker i.
func (s *Schedule) TransitionCounts() [][]uint64 {
	t := make([][]uint64, s.workers)
	for i := range t {
		t[i] = make([]uint64, s.workers)
	}
	for k := 1; k < len(s.order); k++ {
		t[s.order[k-1]][s.order[k]]++
	}
	return t
}

// NextStepDistribution returns the empirical distribution of the
// worker scheduled immediately after a step by `from` — the quantity
// of Figure 4.
func (s *Schedule) NextStepDistribution(from int) ([]float64, error) {
	if from < 0 || from >= s.workers {
		return nil, fmt.Errorf("native: worker %d out of range", from)
	}
	t := s.TransitionCounts()
	var total uint64
	for _, c := range t[from] {
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("native: no transitions recorded from worker %d", from)
	}
	out := make([]float64, s.workers)
	for j, c := range t[from] {
		out[j] = float64(c) / float64(total)
	}
	return out, nil
}
