// Package sched implements the stochastic scheduler model of
// Definition 1 in the paper: at each discrete time step the scheduler
// picks one process to take a shared-memory step. A scheduler for n
// processes is a triple (Π_τ, A_τ, θ): a per-step distribution Π_τ
// over process ids, a possibly-active set A_τ that shrinks over time
// (crash containment), and a threshold θ such that every process in
// A_τ is scheduled with probability at least θ.
//
// A scheduler is *stochastic* when θ > 0. Classic adversaries are the
// θ = 0 degenerate case in which Π_τ is a point mass chosen by a
// strategy.
//
// The concrete schedulers provided are:
//
//   - Uniform: the paper's uniform stochastic scheduler (γ_i = 1/|A_τ|).
//   - Weighted: an arbitrary fixed distribution with threshold θ.
//   - Lottery: ticket-based lottery scheduling (Petrou et al. [19]).
//   - Sticky: a Markov-modulated scheduler with local correlation —
//     with probability ρ it reschedules the previous process; still
//     stochastic for ρ < 1.
//   - Phased: a time-varying scheduler cycling through weighted phases.
//   - RoundRobin: the deterministic fair baseline (θ = 0 but uniformly
//     isolating).
//   - Adversarial: a strategy-driven worst case (θ = 0).
//
// There is one type per policy. Each holds K ≥ 1 replicas of the same
// configuration: one rng stream per replica, and one copy of the
// structures that depend only on the configuration (the active set,
// alias tables, the Fenwick tree), which every replica shares. Every
// type implements BatchDrawer, whose NextBatch draws the next pid of
// all K replicas at once for the replica-batched simulator core, and
// through it Scheduler, whose Next draws the single replica of a K = 1
// instance for the scalar machine. The NewX constructors build K = 1
// from an rng source; the NewXBatch constructors build one replica per
// seed. Both validate through one shared path per policy.
//
// Every stochastic draw is constant-time or logarithmic in n, so a
// simulation of S steps spends O(S) — not O(S·n) — in scheduling:
// Uniform and Sticky draw from a dense swap-remove active set (O(1)),
// Weighted and Phased draw from Walker alias tables rebuilt only on
// crash (O(1) per draw), and Lottery draws through a ticket→holder
// table (O(1) per draw) while its active tickets number at most
// holderTableMax, else through a Fenwick tree (O(log n) per draw and
// per ticket transfer). The superseded O(n)
// scan samplers survive in the tests (naive_test.go) as the reference
// the equivalence tests check these draws against.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pwf/internal/rng"
)

// Common scheduler errors.
var (
	ErrAllCrashed    = errors.New("sched: all processes have crashed")
	ErrBadProcess    = errors.New("sched: process id out of range")
	ErrLastProcess   = errors.New("sched: cannot crash the last correct process")
	ErrNotMinimal    = errors.New("sched: distribution does not sum to 1")
	ErrBelowThresh   = errors.New("sched: active process scheduled below threshold")
	ErrBadThreshold  = errors.New("sched: threshold out of (0, 1]")
	ErrNoProcesses   = errors.New("sched: need at least one process")
	ErrAlreadyDead   = errors.New("sched: process already crashed")
	ErrBadStickiness = errors.New("sched: stickiness out of [0, 1)")
)

// Scheduler decides, at each discrete time step, which process takes
// the next shared-memory step.
type Scheduler interface {
	// Next returns the id of the process scheduled for the next time
	// step. It fails only when every process has crashed.
	Next() (int, error)
	// N returns the total number of processes (crashed or not).
	N() int
	// Threshold returns θ, the minimum per-step scheduling probability
	// guaranteed to every active process. A return of 0 means the
	// scheduler is not stochastic.
	Threshold() float64
}

// Crasher is implemented by schedulers that support fail-stop crashes
// (the set A_τ of Definition 1). Crash containment — A_{τ+1} ⊆ A_τ —
// holds by construction: a crashed process never rejoins. A crash
// applies to every replica of a batch at once.
type Crasher interface {
	// Crash removes pid from the active set. At most n-1 processes may
	// crash, matching the model's assumption.
	Crash(pid int) error
	// Correct reports whether pid is still active.
	Correct(pid int) bool
	// NumCorrect returns |A_τ|.
	NumCorrect() int
}

// CheckStickiness validates a Sticky rescheduling probability: rho
// must lie in [0, 1), which excludes NaN.
func CheckStickiness(rho float64) error {
	if !(rho >= 0 && rho < 1) {
		return fmt.Errorf("%w: rho %v", ErrBadStickiness, rho)
	}
	return nil
}

// CheckWeights validates a per-process weight vector: every weight
// strictly positive and finite, and the sum finite. It returns the
// threshold θ = min w / Σ w the weights guarantee.
func CheckWeights(weights []float64) (float64, error) {
	if len(weights) == 0 {
		return 0, ErrNoProcesses
	}
	var total float64
	minW := weights[0]
	for pid, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return 0, fmt.Errorf("sched: weight %v of process %d is not strictly positive and finite", w, pid)
		}
		total += w
		minW = min(minW, w)
	}
	if math.IsInf(total, 1) {
		return 0, errors.New("sched: weights sum beyond the float64 range")
	}
	return minW / total, nil
}

// CheckTickets validates a lottery ticket vector: every process holds
// at least one ticket and the total fits in an int. It returns the
// total.
func CheckTickets(tickets []int) (int, error) {
	if len(tickets) == 0 {
		return 0, ErrNoProcesses
	}
	total := 0
	for pid, t := range tickets {
		if t < 1 {
			return 0, fmt.Errorf("sched: process %d holds %d tickets, need >= 1", pid, t)
		}
		if t > math.MaxInt-total {
			return 0, fmt.Errorf("sched: ticket total overflows int at process %d", pid)
		}
		total += t
	}
	return total, nil
}

// activeSet is the possibly-active set A_τ, shared by every replica.
// It keeps three views in sync: a boolean membership array (O(1)
// Correct), a dense id list maintained by swap-remove (O(1) uniform
// draws with no per-step allocation, at the cost of the list being
// unordered after a crash), and the inverse permutation pos mapping
// each live pid to its slot in ids. It implements Crasher and
// Scheduler.N, and every policy but Adversarial embeds it; those whose
// sampling structure depends on A_τ wrap Crash to rebuild it.
type activeSet struct {
	alive []bool
	ids   []int32 // dense list of correct pids; unordered after crashes
	pos   []int32 // pid -> index into ids, -1 once crashed
}

func newActiveSet(n int) activeSet {
	alive := make([]bool, n)
	ids := make([]int32, n)
	pos := make([]int32, n)
	for i := range alive {
		alive[i] = true
		ids[i] = int32(i)
		pos[i] = int32(i)
	}
	return activeSet{alive: alive, ids: ids, pos: pos}
}

// Crash implements Crasher.
func (a *activeSet) Crash(pid int) error {
	if pid < 0 || pid >= len(a.alive) {
		return fmt.Errorf("%w: %d", ErrBadProcess, pid)
	}
	if !a.alive[pid] {
		return fmt.Errorf("%w: %d", ErrAlreadyDead, pid)
	}
	if len(a.ids) == 1 {
		return ErrLastProcess
	}
	a.alive[pid] = false
	last := int32(len(a.ids) - 1)
	moved := a.ids[last]
	slot := a.pos[pid]
	a.ids[slot] = moved
	a.pos[moved] = slot
	a.ids = a.ids[:last]
	a.pos[pid] = -1
	return nil
}

// Correct implements Crasher.
func (a *activeSet) Correct(pid int) bool {
	return pid >= 0 && pid < len(a.alive) && a.alive[pid]
}

// NumCorrect implements Crasher: |A_τ|.
func (a *activeSet) NumCorrect() int { return len(a.ids) }

// N implements Scheduler: the number of processes, crashed or not.
func (a *activeSet) N() int { return len(a.alive) }

// pick returns a uniformly random correct pid in O(1).
func (a *activeSet) pick(src *rng.Source) int {
	return int(a.ids[src.Intn(len(a.ids))])
}

// Uniform is the uniform stochastic scheduler of Section 2.3: every
// active process is scheduled with probability 1/|A_τ| at every step.
type Uniform struct {
	activeSet
	srcs  []rng.Source
	draws []int64 // NextBatch scratch, one slot per replica
}

// NewUniform returns a uniform stochastic scheduler over n processes
// with one replica, which draws from a copy of *src (src itself does
// not advance).
func NewUniform(n int, src *rng.Source) (*Uniform, error) {
	return newUniform(n, sourceOf(src))
}

// NewUniformBatch returns a uniform scheduler over n processes with one
// replica per seed.
func NewUniformBatch(n int, seeds []uint64) (*Uniform, error) {
	return newUniform(n, seededSources(seeds))
}

func newUniform(n int, srcs []rng.Source) (*Uniform, error) {
	if n < 1 {
		return nil, ErrNoProcesses
	}
	if len(srcs) == 0 {
		return nil, ErrNoReplicas
	}
	return &Uniform{srcs: srcs, activeSet: newActiveSet(n), draws: make([]int64, len(srcs))}, nil
}

// Next implements Scheduler in O(1): one bounded draw from the dense
// active-id list, crashes or not.
func (u *Uniform) Next() (int, error) {
	if len(u.srcs) != 1 {
		return 0, ErrBatchLen
	}
	if u.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	return u.pick(&u.srcs[0]), nil
}

// NextBatch implements BatchDrawer: one O(1) dense-set pick per
// replica, all against the same id list, with the bounded draws of the
// whole batch pipelined through rng.IntnBatch.
func (u *Uniform) NextBatch(pids []int32) error {
	if len(pids) != len(u.srcs) {
		return ErrBatchLen
	}
	ids := u.ids
	if len(ids) == 0 {
		return ErrAllCrashed
	}
	rng.IntnBatch(u.srcs, len(ids), u.draws)
	for r, d := range u.draws {
		pids[r] = ids[d]
	}
	return nil
}

// K implements BatchDrawer.
func (u *Uniform) K() int { return len(u.srcs) }

// Threshold implements Scheduler: θ = 1/n (with crashes the actual
// per-step probability only grows, so 1/n remains a valid threshold).
func (u *Uniform) Threshold() float64 { return 1 / float64(len(u.alive)) }

// Weighted schedules process i with fixed probability proportional to
// weights[i], renormalized over the active set after crashes. The
// threshold θ is the minimum renormalized probability across active
// processes in the crash-free case; it is validated at construction.
//
// Draws are O(1) through a Walker alias table over the active
// processes, shared by every replica. The table depends only on the
// weight restriction to A_τ, so it is rebuilt (in O(|A_τ|)) exactly
// when a process crashes and never on the per-step path.
type Weighted struct {
	activeSet
	srcs    []rng.Source
	weights []float64
	theta   float64

	table aliasTable
	wBuf  []float64 // rebuild scratch: weights of the active ids
}

// NewWeighted builds a weighted stochastic scheduler with one replica,
// which draws from a copy of *src. Weights must pass CheckWeights, so
// that the weak-fairness condition (θ > 0) holds.
func NewWeighted(weights []float64, src *rng.Source) (*Weighted, error) {
	return newWeighted(weights, sourceOf(src))
}

// NewWeightedBatch builds a weighted scheduler with one replica per
// seed.
func NewWeightedBatch(weights []float64, seeds []uint64) (*Weighted, error) {
	return newWeighted(weights, seededSources(seeds))
}

func newWeighted(weights []float64, srcs []rng.Source) (*Weighted, error) {
	theta, err := CheckWeights(weights)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, ErrNoReplicas
	}
	w := &Weighted{
		srcs:      srcs,
		weights:   append([]float64(nil), weights...),
		activeSet: newActiveSet(len(weights)),
		theta:     theta,
	}
	if err := w.rebuild(); err != nil {
		return nil, err
	}
	return w, nil
}

// rebuild reconstructs the alias table over the currently active
// processes. Called at construction and after every crash.
func (w *Weighted) rebuild() error {
	w.wBuf = grow(w.wBuf, len(w.ids))
	for i, pid := range w.ids {
		w.wBuf[i] = w.weights[pid]
	}
	return w.table.build(w.ids, w.wBuf)
}

// Next implements Scheduler in O(1) via the alias table.
func (w *Weighted) Next() (int, error) {
	if len(w.srcs) != 1 {
		return 0, ErrBatchLen
	}
	if w.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	return w.table.draw(&w.srcs[0]), nil
}

// NextBatch implements BatchDrawer: one O(1) alias draw per replica
// against the shared table.
func (w *Weighted) NextBatch(pids []int32) error {
	if len(pids) != len(w.srcs) {
		return ErrBatchLen
	}
	if w.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	for r := range w.srcs {
		pids[r] = int32(w.table.draw(&w.srcs[r]))
	}
	return nil
}

// K implements BatchDrawer.
func (w *Weighted) K() int { return len(w.srcs) }

// Threshold implements Scheduler.
func (w *Weighted) Threshold() float64 { return w.theta }

// Crash implements Crasher, rebuilding the shared alias table over the
// shrunken active set (O(|A_τ|), amortized over at most n-1 crashes).
func (w *Weighted) Crash(pid int) error {
	if err := w.activeSet.Crash(pid); err != nil {
		return err
	}
	return w.rebuild()
}

// Lottery implements lottery scheduling [Petrou et al. 1999]: each
// process holds an integer number of tickets and is scheduled with
// probability proportional to its holding. It is a Weighted scheduler
// with integer weights and runtime ticket transfers.
//
// A draw picks a winning ticket among the active ones and resolves its
// holder, through structures shared by every replica. While the active
// ticket total is at most holderTableMax — one ticket per process, the
// default, up to n = 4096 — a ticket→holder table answers in O(1): it
// lists the correct pids in id order, each once per ticket, and is
// rebuilt in O(total) on every crash and transfer. Above that, a
// Fenwick tree over the active ticket counts answers in O(log n), with
// O(log n) transfers and crashes. The tree is kept current either way,
// and the active ticket total is maintained incrementally rather than
// recomputed per step. Both lookups resolve tickets in id order
// exactly as the superseded linear scan did, so for identical rng
// states Next returns the identical pid sequence on either path (see
// TestLotterySequenceMatchesNaive).
type Lottery struct {
	activeSet
	srcs    []rng.Source
	tickets []int
	total   int // all tickets, crashed holders included (Threshold)

	fen         *fenwick
	activeTotal int64   // tickets held by correct processes
	holders     []int32 // holders[t] holds active ticket t; empty above holderTableMax
	wins        []int64 // NextBatch scratch, one slot per replica
}

// holderTableMax is the largest active ticket total the Lottery
// resolves through its ticket→holder table. Draws alone favour the
// table at every total measured: at K = 16 and n ≤ 256, a table of up
// to 2^18 tickets cost 3–6 ns per lane against 13–26 for the Fenwick
// descent. The limit bounds what the table costs elsewhere: its
// rebuild on every crash and transfer took 3 µs at 4,096 tickets and
// 46 µs at 65,536, against 16 ns for a tree update, and at 4,096 it
// stays a 16 KB array.
const holderTableMax = 4096

// NewLottery builds a lottery scheduler with one replica, which draws
// from a copy of *src. Tickets must pass CheckTickets.
func NewLottery(tickets []int, src *rng.Source) (*Lottery, error) {
	return newLottery(tickets, sourceOf(src))
}

// NewLotteryBatch builds a lottery scheduler with one replica per seed.
func NewLotteryBatch(tickets []int, seeds []uint64) (*Lottery, error) {
	return newLottery(tickets, seededSources(seeds))
}

func newLottery(tickets []int, srcs []rng.Source) (*Lottery, error) {
	total, err := CheckTickets(tickets)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, ErrNoReplicas
	}
	vals := make([]int64, len(tickets))
	for i, t := range tickets {
		vals[i] = int64(t)
	}
	fen := newFenwick(len(tickets))
	fen.init(vals)
	l := &Lottery{
		srcs:        srcs,
		tickets:     append([]int(nil), tickets...),
		activeSet:   newActiveSet(len(tickets)),
		total:       total,
		fen:         fen,
		activeTotal: int64(total),
		wins:        make([]int64, len(srcs)),
	}
	l.reindex()
	return l, nil
}

// reindex rebuilds the ticket→holder table after the active holdings
// changed, or empties it when the active total is above
// holderTableMax. The table reuses its storage.
func (l *Lottery) reindex() {
	holders := l.holders[:0]
	if l.activeTotal <= holderTableMax {
		for pid, t := range l.tickets {
			if l.alive[pid] {
				for ; t > 0; t-- {
					holders = append(holders, int32(pid))
				}
			}
		}
	}
	l.holders = holders
}

// Next implements Scheduler by drawing a winning ticket among active
// processes and resolving its holder through the same lookup as
// NextBatch: the table in O(1), or the tree in O(log n).
func (l *Lottery) Next() (int, error) {
	if len(l.srcs) != 1 {
		return 0, ErrBatchLen
	}
	if l.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	win := l.srcs[0].Intn(int(l.activeTotal))
	if len(l.holders) != 0 {
		return int(l.holders[win]), nil
	}
	return l.fen.find(int64(win)), nil
}

// NextBatch implements BatchDrawer: the winning tickets of the whole
// batch drawn through rng.IntnBatch, then resolved against the shared
// table, or else the shared tree through findBatch, so the descents of
// the whole batch overlap instead of serialising one dependent chain
// at a time.
func (l *Lottery) NextBatch(pids []int32) error {
	if len(pids) != len(l.srcs) {
		return ErrBatchLen
	}
	if l.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	rng.IntnBatch(l.srcs, int(l.activeTotal), l.wins)
	if holders := l.holders; len(holders) != 0 {
		for r, win := range l.wins {
			pids[r] = holders[win]
		}
		return nil
	}
	l.fen.findBatch(l.wins, pids)
	return nil
}

// SetTickets changes pid's holding at runtime (ticket transfers):
// O(log n) on the tree, plus the table's O(total) rebuild while the
// active total is at most holderTableMax. The holding is shared, so
// the change applies to every replica. A change that would overflow
// the ticket total is rejected.
func (l *Lottery) SetTickets(pid, tickets int) error {
	if pid < 0 || pid >= len(l.tickets) {
		return fmt.Errorf("%w: %d", ErrBadProcess, pid)
	}
	if tickets < 1 {
		return fmt.Errorf("sched: process %d needs >= 1 ticket", pid)
	}
	others := l.total - l.tickets[pid]
	if tickets > math.MaxInt-others {
		return fmt.Errorf("sched: %d tickets for process %d overflow the ticket total", tickets, pid)
	}
	delta := tickets - l.tickets[pid]
	l.total = others + tickets
	l.tickets[pid] = tickets
	if l.alive[pid] {
		l.fen.add(pid, int64(delta))
		l.activeTotal += int64(delta)
		l.reindex()
	}
	return nil
}

// K implements BatchDrawer.
func (l *Lottery) K() int { return len(l.srcs) }

// Threshold implements Scheduler: the minimum ticket share.
func (l *Lottery) Threshold() float64 {
	return float64(slices.Min(l.tickets)) / float64(l.total)
}

// Crash implements Crasher, zeroing pid's tickets in the tree so the
// inverse-CDF search skips it (O(log n)) and dropping them from the
// table.
func (l *Lottery) Crash(pid int) error {
	if err := l.activeSet.Crash(pid); err != nil {
		return err
	}
	l.fen.add(pid, -int64(l.tickets[pid]))
	l.activeTotal -= int64(l.tickets[pid])
	l.reindex()
	return nil
}

// Sticky is a Markov-modulated scheduler: with probability rho it
// schedules the same process as the previous step; otherwise it picks
// uniformly among active processes. This models the local correlation
// real schedulers exhibit (a thread tends to keep its core for a
// while) and is still stochastic: every active process has per-step
// probability at least (1-ρ)/n. Both rows of its two-state modulation
// are sampled in O(1): the sticky branch is a Bernoulli trial and the
// exploration branch draws from the dense active set. The previously
// scheduled process is per-replica state; the active set is shared.
// NextBatch runs the trials of all replicas first, as the integer
// compare rng.BernoulliThreshold gives, and then the dense-set draws
// of the replicas that did not stay.
type Sticky struct {
	activeSet
	srcs []rng.Source
	rho  float64
	stay uint64  // rng.BernoulliThreshold(rho); 0 when rho = 0 draws no trial
	last []int32 // per replica: the previous pick, -1 before the first

	explore []int32 // NextBatch scratch: the replicas that explore
	draws   []int64 // NextBatch scratch: their dense-set draws
}

// NewSticky builds a sticky scheduler with one replica, which draws
// from a copy of *src. Stickiness rho must pass CheckStickiness.
func NewSticky(n int, rho float64, src *rng.Source) (*Sticky, error) {
	return newSticky(n, rho, sourceOf(src))
}

// NewStickyBatch builds a sticky scheduler with one replica per seed.
func NewStickyBatch(n int, rho float64, seeds []uint64) (*Sticky, error) {
	return newSticky(n, rho, seededSources(seeds))
}

func newSticky(n int, rho float64, srcs []rng.Source) (*Sticky, error) {
	if n < 1 {
		return nil, ErrNoProcesses
	}
	if err := CheckStickiness(rho); err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, ErrNoReplicas
	}
	last := make([]int32, len(srcs))
	for r := range last {
		last[r] = -1
	}
	var stay uint64
	if rho > 0 {
		stay = rng.BernoulliThreshold(rho)
	}
	return &Sticky{
		srcs:      srcs,
		rho:       rho,
		stay:      stay,
		activeSet: newActiveSet(n),
		last:      last,
		explore:   make([]int32, len(srcs)),
		draws:     make([]int64, len(srcs)),
	}, nil
}

// Next implements Scheduler in O(1).
func (s *Sticky) Next() (int, error) {
	if len(s.srcs) != 1 {
		return 0, ErrBatchLen
	}
	if s.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	src, last := &s.srcs[0], &s.last[0]
	if *last >= 0 && s.alive[*last] && src.Bernoulli(s.rho) {
		return int(*last), nil
	}
	*last = int32(s.pick(src))
	return int(*last), nil
}

// NextBatch implements BatchDrawer, drawing what Next draws per
// replica in two passes over the batch. The first runs the stay trial
// of every replica that has a previous pick, each one xoshiro step and
// the integer compare that equals Bernoulli's. It writes every
// replica's index to the explore list but counts it only when it did
// not stay, so sorting the replicas costs no branch on the trial's
// outcome. The second pass draws the explorers' dense-set picks,
// pipelined through rng.IntnAt. Every replica's stream advances
// exactly as under Next: a trial if it has a previous pick, then a
// pick unless it stayed.
func (s *Sticky) NextBatch(pids []int32) error {
	if len(pids) != len(s.srcs) {
		return ErrBatchLen
	}
	ids := s.ids
	if len(ids) == 0 {
		return ErrAllCrashed
	}
	last, explore, n := s.last, s.explore, len(s.explore)
	if s.stay == 0 {
		// rho = 0: Bernoulli draws nothing and every replica explores.
		for r := range explore {
			explore[r] = int32(r)
		}
	} else {
		n = stayTrials(s.srcs, last, s.stay, explore)
	}
	explore, draws := explore[:n], s.draws[:n]
	rng.IntnAt(s.srcs, explore, len(ids), draws)
	for j, r := range explore {
		last[r] = ids[draws[j]]
	}
	copy(pids, last)
	return nil
}

// stayTrials runs the stay trial of every replica r with a previous
// pick (last[r] ≥ 0): the trial fails when srcs[r]'s next output u has
// u>>11 ≥ stay. It lists in explore the replicas with no previous pick
// or a failed trial, in replica order, and returns how many there are.
// Each replica's index is written to explore[n] unconditionally and
// kept by advancing n, so the trial's outcome costs no branch. It is a
// function of its own so that its loop, with the inlined xoshiro step,
// does not share registers with the rest of NextBatch.
func stayTrials(srcs []rng.Source, last []int32, stay uint64, explore []int32) int {
	n := 0
	for r, prev := range last {
		explore[n] = int32(r)
		if prev < 0 {
			n++
			continue
		}
		// The top bit of m - stay is set exactly when m < stay, as
		// m < 2^53 and stay ≤ 2^53, so n grows when the trial fails.
		m := srcs[r].Uint64() >> 11
		n += int(1 - (m-stay)>>63)
	}
	return n
}

// Crash implements Crasher. It also forgets the crashed pid as any
// replica's previous pick, so that a replica with a previous pick
// (last ≥ 0) always has a correct one and NextBatch need not look the
// pick up in the active set. Next still checks, which keeps it the
// independent reference the batch form is tested against.
func (s *Sticky) Crash(pid int) error {
	if err := s.activeSet.Crash(pid); err != nil {
		return err
	}
	for r, prev := range s.last {
		if int(prev) == pid {
			s.last[r] = -1
		}
	}
	return nil
}

// K implements BatchDrawer.
func (s *Sticky) K() int { return len(s.srcs) }

// Threshold implements Scheduler: (1-ρ)/n.
func (s *Sticky) Threshold() float64 {
	return (1 - s.rho) / float64(len(s.alive))
}

// RoundRobin is the deterministic fair baseline: processes take steps
// in cyclic id order, skipping crashed ones. Its threshold is 0 (it is
// not stochastic), but every schedule it produces is uniformly
// isolating in the trivial k=1 sense and perfectly fair in the long
// run. The schedule has no randomness, so every replica is at the same
// position: one shared cursor, the same pid for all replicas each step.
type RoundRobin struct {
	activeSet
	k    int
	next int
}

// NewRoundRobin builds a round-robin scheduler over n processes with
// one replica.
func NewRoundRobin(n int) (*RoundRobin, error) { return NewRoundRobinBatch(n, 1) }

// NewRoundRobinBatch builds a round-robin scheduler over n processes
// with k replicas.
func NewRoundRobinBatch(n, k int) (*RoundRobin, error) {
	if n < 1 {
		return nil, ErrNoProcesses
	}
	if k < 1 {
		return nil, ErrNoReplicas
	}
	return &RoundRobin{k: k, activeSet: newActiveSet(n)}, nil
}

// Next implements Scheduler.
func (r *RoundRobin) Next() (int, error) {
	if r.k != 1 {
		return 0, ErrBatchLen
	}
	if r.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	return r.advance(), nil
}

// NextBatch implements BatchDrawer.
func (r *RoundRobin) NextBatch(pids []int32) error {
	if len(pids) != r.k {
		return ErrBatchLen
	}
	if r.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	fill(pids, r.advance())
	return nil
}

// advance moves the cursor past the next correct process and returns
// it.
func (r *RoundRobin) advance() int {
	for {
		pid := r.next
		r.next = (r.next + 1) % len(r.alive)
		if r.alive[pid] {
			return pid
		}
	}
}

// K implements BatchDrawer.
func (r *RoundRobin) K() int { return r.k }

// Threshold implements Scheduler. RoundRobin is deterministic, so it
// provides no probabilistic threshold.
func (r *RoundRobin) Threshold() float64 { return 0 }

// Strategy chooses the process to schedule at time step tau given the
// number of processes. It encodes a classic asynchronous adversary as
// a point-mass distribution per step (Section 2.3).
type Strategy func(tau uint64, n int) int

// Adversarial drives scheduling from a Strategy; θ = 0. The strategy
// is a deterministic function of the step count, so every replica sees
// the same point-mass schedule.
type Adversarial struct {
	n, k     int
	tau      uint64
	strategy Strategy
}

// NewAdversarial builds an adversarial scheduler over n processes with
// one replica.
func NewAdversarial(n int, strategy Strategy) (*Adversarial, error) {
	return NewAdversarialBatch(n, 1, strategy)
}

// NewAdversarialBatch builds an adversarial scheduler over n processes
// with k replicas.
func NewAdversarialBatch(n, k int, strategy Strategy) (*Adversarial, error) {
	if n < 1 {
		return nil, ErrNoProcesses
	}
	if k < 1 {
		return nil, ErrNoReplicas
	}
	if strategy == nil {
		return nil, errors.New("sched: nil strategy")
	}
	return &Adversarial{n: n, k: k, strategy: strategy}, nil
}

// Next implements Scheduler. A strategy returning an out-of-range id
// is an error (the adversary must be well-formed).
func (a *Adversarial) Next() (int, error) {
	if a.k != 1 {
		return 0, ErrBatchLen
	}
	return a.advance()
}

// NextBatch implements BatchDrawer.
func (a *Adversarial) NextBatch(pids []int32) error {
	if len(pids) != a.k {
		return ErrBatchLen
	}
	pid, err := a.advance()
	if err != nil {
		return err
	}
	fill(pids, pid)
	return nil
}

// advance asks the strategy for step tau's pid and moves to the next
// step.
func (a *Adversarial) advance() (int, error) {
	pid := a.strategy(a.tau, a.n)
	a.tau++
	if pid < 0 || pid >= a.n {
		return 0, fmt.Errorf("%w: strategy chose %d of %d", ErrBadProcess, pid, a.n)
	}
	return pid, nil
}

// N implements Scheduler.
func (a *Adversarial) N() int { return a.n }

// K implements BatchDrawer.
func (a *Adversarial) K() int { return a.k }

// Threshold implements Scheduler. Adversaries carry no probabilistic
// guarantee.
func (a *Adversarial) Threshold() float64 { return 0 }

// SingleOut returns a Strategy that starves victim: it cycles through
// all other processes and never schedules the victim. Used in tests
// and the E13 ablation to show what the stochastic model rules out.
func SingleOut(victim int) Strategy {
	return func(tau uint64, n int) int {
		if n == 1 {
			return 0
		}
		pid := int(tau % uint64(n-1))
		if pid >= victim {
			pid++
		}
		return pid
	}
}
