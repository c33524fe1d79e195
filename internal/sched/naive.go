package sched

import (
	"errors"
	"fmt"
)

// This file preserves the superseded O(n)-per-draw samplers as
// NextNaive methods on the rewritten schedulers. They are the
// reference implementations: the chi-square equivalence tests check
// that the constant-time paths (alias tables, Fenwick tree, dense
// active set) draw from the same distributions under arbitrary crash
// and ticket-transfer sequences, and cmd/pwfbench times them as the
// "before" side of BENCH_sched.json. They draw from replica 0's rng
// source and share the crash state, so a single instance must not
// interleave Next and NextNaive if sequence-level reproducibility
// matters.

// NextNaive is the superseded Uniform draw: rebuild the list of
// correct ids and index into it, O(n) after any crash.
func (u *Uniform) NextNaive() (int, error) {
	switch u.NumCorrect() {
	case 0:
		return 0, ErrAllCrashed
	case len(u.alive):
		return u.srcs[0].Intn(len(u.alive)), nil
	}
	u.naiveIDs = u.naiveIDs[:0]
	for pid, ok := range u.alive {
		if ok {
			u.naiveIDs = append(u.naiveIDs, pid)
		}
	}
	return u.naiveIDs[u.srcs[0].Intn(len(u.naiveIDs))], nil
}

// NextNaive is the superseded Weighted draw: zero the crashed
// entries into a scratch vector and linear-scan rng.Categorical,
// O(n) every step.
func (w *Weighted) NextNaive() (int, error) {
	if w.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	for pid := range w.weights {
		if w.alive[pid] {
			w.scratch[pid] = w.weights[pid]
		} else {
			w.scratch[pid] = 0
		}
	}
	pid, err := w.srcs[0].Categorical(w.scratch)
	if err != nil {
		return 0, fmt.Errorf("sched: weighted draw: %w", err)
	}
	return pid, nil
}

// NextNaive is the superseded Lottery draw: recompute the active
// ticket total and linear-scan for the winning ticket's holder, two
// O(n) passes every step. It visits processes in id order, so with
// identical rng states it returns the identical sequence as the
// Fenwick-backed Next.
func (l *Lottery) NextNaive() (int, error) {
	if l.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	activeTotal := 0
	for pid, t := range l.tickets {
		if l.alive[pid] {
			activeTotal += t
		}
	}
	win := l.srcs[0].Intn(activeTotal)
	for pid, t := range l.tickets {
		if !l.alive[pid] {
			continue
		}
		if win < t {
			return pid, nil
		}
		win -= t
	}
	// Unreachable: the draw is strictly below the active ticket total.
	return 0, errors.New("sched: lottery draw exhausted tickets")
}

// NextNaive is the superseded Sticky draw: the sticky branch is
// unchanged, but the exploration branch rebuilds the correct-id list,
// O(n) after any crash.
func (s *Sticky) NextNaive() (int, error) {
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
		s.naiveIDs = s.naiveIDs[:0]
		for id, ok := range s.alive {
			if ok {
				s.naiveIDs = append(s.naiveIDs, id)
			}
		}
		pid = s.naiveIDs[src.Intn(len(s.naiveIDs))]
	}
	s.last[0] = int32(pid)
	return pid, nil
}

// NextNaive is the superseded Phased draw: mask the current phase's
// weights by liveness into a scratch vector and linear-scan
// rng.Categorical, O(n) every step.
func (p *Phased) NextNaive() (int, error) {
	if p.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	p.tick()
	weights := p.phases[p.idx].Weights
	for pid := range weights {
		if p.alive[pid] {
			p.scratch[pid] = weights[pid]
		} else {
			p.scratch[pid] = 0
		}
	}
	pid, err := p.srcs[0].Categorical(p.scratch)
	if err != nil {
		return 0, fmt.Errorf("sched: phased draw: %w", err)
	}
	return pid, nil
}
