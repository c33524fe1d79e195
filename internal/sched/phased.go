package sched

import (
	"errors"
	"fmt"

	"pwf/internal/rng"
)

// Phased is a time-varying stochastic scheduler: Definition 1 lets
// the distribution Π_τ change at every step, and Phased realises a
// simple instance — the schedule cycles through a sequence of
// weighted phases, each lasting a fixed number of steps. It models
// workload shifts (e.g. a box that favours half the threads during a
// load spike and then flips). The threshold θ is the worst-case
// minimum probability across all phases, so the scheduler remains
// stochastic as long as every weight is positive.
//
// Each phase — each row of the cyclic modulation — owns a Walker
// alias table over the active processes, so the per-step draw is O(1)
// regardless of n and of the number of phases. The tables depend only
// on the phase weights restricted to A_τ and are rebuilt exactly when
// a process crashes. Replicas share the phase clock and the tables;
// only the draw randomness is per replica.
type Phased struct {
	activeSet
	srcs   []rng.Source
	phases []Phase
	idx    int    // current phase, shared by every replica
	left   uint64 // steps remaining in the current phase
	theta  float64

	tables []aliasTable
	wBuf   []float64 // rebuild scratch
}

// Phase is one segment of a Phased schedule.
type Phase struct {
	// Weights gives each process's scheduling weight in this phase;
	// all must be strictly positive.
	Weights []float64
	// Steps is the phase length; must be >= 1.
	Steps uint64
}

// CheckPhases validates a phased schedule over n processes: at least
// one phase, each of positive length with n weights that pass
// CheckWeights. It returns θ, the least share over all phases.
func CheckPhases(n int, phases []Phase) (float64, error) {
	if n < 1 {
		return 0, ErrNoProcesses
	}
	if len(phases) == 0 {
		return 0, errors.New("sched: need at least one phase")
	}
	theta := 1.0
	for i, ph := range phases {
		if len(ph.Weights) != n {
			return 0, fmt.Errorf("sched: phase %d has %d weights for %d processes",
				i, len(ph.Weights), n)
		}
		if ph.Steps < 1 {
			return 0, fmt.Errorf("sched: phase %d has zero length", i)
		}
		t, err := CheckWeights(ph.Weights)
		if err != nil {
			return 0, fmt.Errorf("%w (phase %d)", err, i)
		}
		theta = min(theta, t)
	}
	return theta, nil
}

// NewPhased builds a time-varying scheduler cycling through the given
// phases over n processes, with one replica, which draws from a copy
// of *src. The phases must pass CheckPhases.
func NewPhased(n int, phases []Phase, src *rng.Source) (*Phased, error) {
	return newPhased(n, phases, sourceOf(src))
}

// NewPhasedBatch builds a phased scheduler with one replica per seed.
func NewPhasedBatch(n int, phases []Phase, seeds []uint64) (*Phased, error) {
	return newPhased(n, phases, seededSources(seeds))
}

func newPhased(n int, phases []Phase, srcs []rng.Source) (*Phased, error) {
	theta, err := CheckPhases(n, phases)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, ErrNoReplicas
	}
	cp := make([]Phase, len(phases))
	for i, ph := range phases {
		cp[i] = Phase{Weights: append([]float64(nil), ph.Weights...), Steps: ph.Steps}
	}
	p := &Phased{
		srcs:      srcs,
		phases:    cp,
		activeSet: newActiveSet(n),
		left:      cp[0].Steps,
		theta:     theta,
		tables:    make([]aliasTable, len(cp)),
	}
	if err := p.rebuild(); err != nil {
		return nil, err
	}
	return p, nil
}

// rebuild reconstructs every phase's alias table over the currently
// active processes; called at construction and after every crash.
func (p *Phased) rebuild() error {
	for i := range p.phases {
		p.wBuf = grow(p.wBuf, len(p.ids))
		for j, pid := range p.ids {
			p.wBuf[j] = p.phases[i].Weights[pid]
		}
		if err := p.tables[i].build(p.ids, p.wBuf); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Scheduler in O(1) via the current phase's alias
// table.
func (p *Phased) Next() (int, error) {
	if len(p.srcs) != 1 {
		return 0, ErrBatchLen
	}
	if p.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	return p.tick().draw(&p.srcs[0]), nil
}

// NextBatch implements BatchDrawer: the shared phase clock advances
// once, then every replica draws from the current phase's table.
func (p *Phased) NextBatch(pids []int32) error {
	if len(pids) != len(p.srcs) {
		return ErrBatchLen
	}
	if p.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	table := p.tick()
	for r := range p.srcs {
		pids[r] = int32(table.draw(&p.srcs[r]))
	}
	return nil
}

// tick advances the phase clock by one step and returns the table of
// the phase governing that step.
func (p *Phased) tick() *aliasTable {
	if p.left == 0 {
		p.idx = (p.idx + 1) % len(p.phases)
		p.left = p.phases[p.idx].Steps
	}
	p.left--
	return &p.tables[p.idx]
}

// K implements BatchDrawer.
func (p *Phased) K() int { return len(p.srcs) }

// Threshold implements Scheduler: the worst-case minimum probability
// over all phases (crash-free).
func (p *Phased) Threshold() float64 { return p.theta }

// CurrentPhase returns the index of the phase governing the next step.
// Replicas run in lockstep, so the phase clock is shared: the index is
// the same for every replica.
func (p *Phased) CurrentPhase() int { return p.idx }

// Crash implements Crasher, rebuilding every phase table over the
// shrunken active set.
func (p *Phased) Crash(pid int) error {
	if err := p.activeSet.Crash(pid); err != nil {
		return err
	}
	return p.rebuild()
}
