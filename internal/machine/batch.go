package machine

import (
	"errors"
	"fmt"

	"pwf/internal/obs"
	"pwf/internal/sched"
)

// Replica-batched simulation: BatchSim steps K independent replicas
// of one job shape per loop iteration. Each replica has its own rng
// stream (inside the sched.BatchDrawer), its own registers and
// algorithm state (inside the BatchGroup), and its own metrics Window
// (here, with the per-process cells of all replicas in one contiguous
// block), all laid out in struct-of-arrays form so the per-step
// dispatch overhead — interface calls, feature checks, loop
// bookkeeping — amortizes across the batch and the hot state stays
// cache-resident.
//
// Determinism contract: replica r of a BatchSim evolves exactly as a
// scalar Sim over the same processes, scheduler seed, and pre-run
// crashes — the same schedule, the same register values up to the
// relabelling of pool slots (a group may number its node slots
// differently, see scu's batchpool.go), the same completions at the
// same steps, and bit-identical latency statistics (both record into
// the same Window code). Batched execution is a pure layout
// optimization.

// BatchGroup is a workload's struct-of-arrays process group: the
// state of K replicas × N processes, steppable with one call per
// batch instead of one interface dispatch per process step.
// Implementations live beside their scalar forms in package scu.
type BatchGroup interface {
	// StepBatch performs, for every replica r, one shared-memory step
	// of process pids[r] in replica r's memory, recording in out[r]
	// the step's Outcome: whether an operation completed, and whether
	// the step was a CAS and failed — exactly the bits the scalar
	// process's step leaves in its memory's operation counters.
	// len(pids) == len(out) == K().
	StepBatch(pids []int32, out []Outcome)
	// K returns the replica count.
	K() int
	// N returns the number of processes per replica.
	N() int
}

// BatchChecker is implemented by batch groups that carry post-run
// invariant checks — linearizability witnesses, pool-exhaustion
// errors — mirroring the scalar workloads' check functions.
// CheckReplica(r) returns the error replica r's scalar counterpart
// would have reported after the same run, or nil.
type BatchChecker interface {
	CheckReplica(r int) error
}

// BatchSim errors.
var (
	ErrBatchMismatch = errors.New("machine: batch group and drawer disagree on shape")
	ErrBadReplica    = errors.New("machine: replica index out of range")
)

// BatchSim couples a batched process group with a batched scheduler
// and accumulates one metrics Window per replica while running. All
// replicas advance in lockstep, so one step count is the clock every
// window reads.
type BatchSim struct {
	group  BatchGroup
	drawer sched.BatchDrawer

	steps   uint64
	windows []Window // replica r's metrics; their ind cells share one block

	// Step scratch.
	pids []int32
	out  []Outcome

	// Counting telemetry (SetMetrics), nil when off.
	cnt *counter
}

// NewBatchSim builds a batched simulator from a group and a drawer
// agreeing on replica count and process count.
func NewBatchSim(group BatchGroup, drawer sched.BatchDrawer) (*BatchSim, error) {
	if group == nil {
		return nil, errors.New("machine: nil batch group")
	}
	if drawer == nil {
		return nil, errors.New("machine: nil batch drawer")
	}
	k, n := group.K(), group.N()
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("%w: group %d replicas x %d processes", ErrBatchMismatch, k, n)
	}
	if drawer.K() != k || drawer.N() != n {
		return nil, fmt.Errorf("%w: drawer %dx%d vs group %dx%d",
			ErrBatchMismatch, drawer.K(), drawer.N(), k, n)
	}
	b := &BatchSim{
		group:   group,
		drawer:  drawer,
		windows: make([]Window, k),
		pids:    make([]int32, k),
		out:     make([]Outcome, k),
	}
	ind := make([]indCell, k*n)
	for r := range b.windows {
		b.windows[r] = Window{clock: &b.steps, ind: ind[r*n : (r+1)*n : (r+1)*n]}
	}
	return b, nil
}

// SetMetrics counts every replica's steps into m, as a scalar Sim
// counts into an *obs.Metrics recorder: one per-simulator obs.Tally,
// merged into m at the end of each Run and at least every 1<<16 steps.
// Pass nil to stop counting.
func (b *BatchSim) SetMetrics(m *obs.Metrics) {
	if b.cnt != nil {
		b.cnt.flush()
	}
	if m == nil {
		b.cnt = nil
		return
	}
	k, n := len(b.windows), b.group.N()
	b.cnt = &counter{m: m, ops: make([]opCell, k*n), n: n, width: uint64(k)}
}

// Run advances every replica by steps time units.
func (b *BatchSim) Run(steps uint64) error {
	if b.cnt != nil {
		return b.runCounted(steps)
	}
	pids, out := b.pids, b.out
	for i := uint64(0); i < steps; i++ {
		if err := b.drawer.NextBatch(pids); err != nil {
			return fmt.Errorf("machine: batch schedule step %d: %w", b.steps, err)
		}
		b.steps++
		b.group.StepBatch(pids, out)
		for r := 0; r < len(out); r++ {
			if out[r]&Completed != 0 {
				b.windows[r].record(int(pids[r]), b.steps)
			}
		}
	}
	return nil
}

// runCounted is Run with counting telemetry: the same loop, plus one
// count of every replica's step into the Tally.
func (b *BatchSim) runCounted(steps uint64) error {
	pids, out, cnt := b.pids, b.out, b.cnt
	ops, n := cnt.ops, cnt.n
	defer cnt.flush()
	for i := uint64(0); i < steps; i++ {
		if err := b.drawer.NextBatch(pids); err != nil {
			return fmt.Errorf("machine: batch schedule step %d: %w", b.steps, err)
		}
		b.steps++
		b.group.StepBatch(pids, out)
		for r, o := range out {
			pid := int(pids[r])
			cnt.count(&ops[r*n+pid], o)
			if o&Completed != 0 {
				b.windows[r].record(pid, b.steps)
			}
		}
		cnt.tick()
	}
	return nil
}

// ResetMetrics discards the statistics gathered so far (warmup) in
// every replica's window while keeping the simulation state.
func (b *BatchSim) ResetMetrics() {
	for r := range b.windows {
		b.windows[r].ResetMetrics()
	}
}

// Replica returns replica r's metrics window, or ErrBadReplica when r
// is not in [0, K) for the group's K replicas.
func (b *BatchSim) Replica(r int) (*Window, error) {
	if r < 0 || r >= len(b.windows) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadReplica, r, len(b.windows))
	}
	return &b.windows[r], nil
}
