package sched

import (
	"errors"
	"fmt"

	"pwf/internal/rng"
)

// naiveNext returns the superseded O(n)-per-draw sampler of s's policy:
// the reference the constant-time paths (dense active set, alias
// tables, Fenwick tree) replaced. It draws over s's own crash, ticket
// and phase state and from replica 0's rng source, keeping its scan
// buffers to itself, so s must not also be drawn through Next if
// sequence-level reproducibility matters. s must be a single-replica
// Uniform, Weighted, Lottery, Sticky or Phased.
func naiveNext(s Crasher) func() (int, error) {
	switch s := s.(type) {
	case *Uniform:
		// Rebuild the list of correct ids and index into it, O(n)
		// after any crash.
		var ids []int
		return func() (int, error) {
			switch s.NumCorrect() {
			case 0:
				return 0, ErrAllCrashed
			case len(s.alive):
				return s.srcs[0].Intn(len(s.alive)), nil
			}
			ids = correctIDs(ids, s.alive)
			return ids[s.srcs[0].Intn(len(ids))], nil
		}
	case *Weighted:
		// Zero the crashed entries into a scratch vector and
		// linear-scan rng.Categorical, O(n) every step.
		masked := make([]float64, len(s.weights))
		return func() (int, error) {
			if s.NumCorrect() == 0 {
				return 0, ErrAllCrashed
			}
			return categorical(s.srcs, s.weights, s.alive, masked, "weighted")
		}
	case *Lottery:
		// Recompute the active ticket total and linear-scan for the
		// winning ticket's holder, two O(n) passes every step. The
		// scan visits processes in id order, so with identical rng
		// states it returns the same sequence as the Fenwick search.
		return func() (int, error) {
			if s.NumCorrect() == 0 {
				return 0, ErrAllCrashed
			}
			activeTotal := 0
			for pid, t := range s.tickets {
				if s.alive[pid] {
					activeTotal += t
				}
			}
			win := s.srcs[0].Intn(activeTotal)
			for pid, t := range s.tickets {
				if !s.alive[pid] {
					continue
				}
				if win < t {
					return pid, nil
				}
				win -= t
			}
			// Unreachable: the draw is strictly below the active total.
			return 0, errors.New("sched: lottery draw exhausted tickets")
		}
	case *Sticky:
		// The sticky branch is unchanged; the exploration branch
		// rebuilds the correct-id list, O(n) after any crash.
		var ids []int
		return func() (int, error) {
			if s.NumCorrect() == 0 {
				return 0, ErrAllCrashed
			}
			src := &s.srcs[0]
			if last := s.last[0]; last >= 0 && s.alive[last] && src.Bernoulli(s.rho) {
				return int(last), nil
			}
			var pid int
			if s.NumCorrect() == len(s.alive) {
				pid = src.Intn(len(s.alive))
			} else {
				ids = correctIDs(ids, s.alive)
				pid = ids[src.Intn(len(ids))]
			}
			s.last[0] = int32(pid)
			return pid, nil
		}
	case *Phased:
		// Mask the current phase's weights by liveness and
		// linear-scan rng.Categorical, O(n) every step.
		masked := make([]float64, s.N())
		return func() (int, error) {
			if s.NumCorrect() == 0 {
				return 0, ErrAllCrashed
			}
			s.tick()
			return categorical(s.srcs, s.phases[s.idx].Weights, s.alive, masked, "phased")
		}
	}
	panic(fmt.Sprintf("sched: no naive sampler for %T", s))
}

// correctIDs refills ids with the correct process ids in id order.
func correctIDs(ids []int, alive []bool) []int {
	ids = ids[:0]
	for pid, ok := range alive {
		if ok {
			ids = append(ids, pid)
		}
	}
	return ids
}

// categorical draws from weights restricted to the alive processes by
// a linear scan, masking into the scratch vector masked.
func categorical(srcs []rng.Source, weights []float64, alive []bool, masked []float64, policy string) (int, error) {
	for pid, w := range weights {
		if alive[pid] {
			masked[pid] = w
		} else {
			masked[pid] = 0
		}
	}
	pid, err := srcs[0].Categorical(masked)
	if err != nil {
		return 0, fmt.Errorf("sched: %s draw: %w", policy, err)
	}
	return pid, nil
}
