package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// Replica-batched workload groups: each *Batch type holds K replicas
// × N processes of one algorithm in struct-of-arrays form and
// implements machine.BatchGroup. The batched forms bypass
// shmem.Memory and operate on raw register arrays — legal because the
// sweep fast path never observes memory contents or operation
// counters, only each step's machine.Outcome, which the groups report
// themselves — so one StepBatch call replaces K interface dispatches
// plus K bounds-checked shmem calls.
//
// Determinism contract: replica r of a batch group, fed the schedule
// of replica r, transitions through exactly the states of the scalar
// process group (NewSCUGroup, NewStack, ...) on a fresh shmem.Memory:
// same phases, same register values up to the relabelling of pool
// slots (batchpool.go), same completion steps, and per step the
// Outcome the scalar memory's operation counters show.

// batchShape validates the common (k, n) constructor arguments.
func batchShape(k, n int) error {
	if k < 1 {
		return fmt.Errorf("%w: %d replicas (need >= 1)", ErrBadParams, k)
	}
	if n < 1 {
		return fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	return nil
}

// scuCell is the algorithm state of one (replica, process) pair,
// packed into 16 bytes so each step touches exactly one cache line of
// per-process state (a 16-byte cell never straddles a line; the
// natural 24-byte layout straddles one access in three). pc encodes
// phase and step position in one program counter: values [0, q) are
// the preamble writes, [q, q+s) the scan reads (the snapshot is taken
// at pc == q), and q+s the validation CAS. The zero value (pc = 0) is
// the scalar initial phase for every q. seq is 32-bit where the
// scalar SCU keeps int64: proposal masks the sequence to its low 32
// bits, so a wrapping uint32 produces bit-identical proposals.
type scuCell struct {
	snapshot int64
	seq      uint32
	pc       int32
}

// SCUBatch is K replicas of the SCU(q, s) group of Algorithm 2 in
// struct-of-arrays form. Per-replica registers follow the scalar
// layout (decision register, s-1 scan registers, scratch register) at
// stride SCULayout(s); per-process algorithm state is indexed
// [r*n + pid].
type SCUBatch struct {
	k, n, q, s int

	regs  []int64   // [r*SCULayout(s) + reg]
	cells []scuCell // [r*n + pid]
}

var _ machine.BatchGroup = (*SCUBatch)(nil)

// NewSCUBatch builds k replicas of n SCU(q, s) processes each, every
// replica on its own zeroed register block.
func NewSCUBatch(k, n, q, s int) (*SCUBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if q < 0 || s < 1 {
		return nil, fmt.Errorf("%w: q=%d s=%d (need q >= 0, s >= 1)", ErrBadParams, q, s)
	}
	return &SCUBatch{
		k: k, n: n, q: q, s: s,
		regs:  make([]int64, k*SCULayout(s)),
		cells: make([]scuCell, k*n),
	}, nil
}

// K implements machine.BatchGroup.
func (g *SCUBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *SCUBatch) N() int { return g.n }

// StepBatch implements machine.BatchGroup with the exact transition
// logic of SCU.Step on raw registers.
func (g *SCUBatch) StepBatch(pids []int32, out []machine.Outcome) {
	if g.q == 0 && g.s == 1 {
		g.stepScanValidate(pids, out)
		return
	}
	stride := g.s + 1
	q := int32(g.q)
	scanEnd := q + int32(g.s)
	cells, regs := g.cells, g.regs
	for r := range pids {
		pid := int(pids[r])
		c := &cells[r*g.n+pid]
		base := r * stride
		pc := c.pc
		var o machine.Outcome
		switch {
		case pc == q:
			// First scan read snapshots the decision register; reads
			// of R_1 .. R_{s-1} have no observable effect on raw
			// registers.
			c.snapshot = regs[base]
			pc++
		case pc < q:
			// Preamble write to the scratch register.
			regs[base+g.s] = int64(pid)
			pc++
		case pc < scanEnd:
			pc++
		default:
			// Validation CAS against the snapshot.
			c.seq++
			if regs[base] == c.snapshot {
				regs[base] = proposal(pid, int64(c.seq))
				o = machine.CAS | machine.Completed
				pc = 0
			} else {
				// Failed validation rescans without repeating the
				// preamble, exactly like the scalar SCU.
				o = machine.CAS | machine.CASFailed
				pc = q
			}
		}
		c.pc = pc
		out[r] = o
	}
}

// stepScanValidate is the branch-free inner loop for the default
// SCU(0, 1) shape, where every process alternates between
// snapshotting the decision register (pc 0) and validating it (pc 1).
// The transition is expressed with conditional moves: a data-dependent
// branch on the phase would mispredict roughly every other step and
// flush the speculative state loads of the replicas behind it, while
// the select form lets the per-replica cell loads issue back to back
// and overlap their cache misses. The outcome bits come from the same
// masks: a validate step is a CAS, which completes when it succeeds
// and fails otherwise.
func (g *SCUBatch) stepScanValidate(pids []int32, out []machine.Outcome) {
	cells, regs := g.cells, g.regs
	n := g.n
	for r := range pids {
		pid := int(pids[r])
		c := &cells[r*n+pid]
		base := r * 2
		reg := regs[base]
		pc := int64(c.pc) // 0 = scan, 1 = validate
		vm := -pc         // all-ones on a validate step
		seq := c.seq + uint32(pc)
		// A scan step snapshots the decision register; a validate step
		// keeps the snapshot.
		snap := c.snapshot
		snap ^= (snap ^ reg) &^ vm
		// eqm is all-ones iff the register still equals the snapshot
		// (d|-d has the sign bit set exactly when d != 0).
		d := reg ^ c.snapshot
		okm := ^((d | -d) >> 63) & vm
		regs[base] = reg ^ ((reg ^ proposal(pid, int64(seq))) & okm)
		c.snapshot = snap
		c.seq = seq
		c.pc = int32(1 - pc)
		ok := okm & 1
		out[r] = machine.Outcome(ok | pc<<1 | (pc^ok)<<2)
	}
}

// ParallelBatch is K replicas of the parallel-code group of
// Algorithm 4: per-(replica, process) step counters, no shared state.
type ParallelBatch struct {
	k, n, q int
	step    []int32 // [r*n + pid]
}

var _ machine.BatchGroup = (*ParallelBatch)(nil)

// NewParallelBatch builds k replicas of n parallel-code processes
// with q >= 1 steps per operation.
func NewParallelBatch(k, n, q int) (*ParallelBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if q < 1 {
		return nil, fmt.Errorf("%w: q=%d (need q >= 1)", ErrBadParams, q)
	}
	return &ParallelBatch{k: k, n: n, q: q, step: make([]int32, k*n)}, nil
}

// K implements machine.BatchGroup.
func (g *ParallelBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *ParallelBatch) N() int { return g.n }

// StepBatch implements machine.BatchGroup; a step is a read, which
// leaves raw registers untouched.
func (g *ParallelBatch) StepBatch(pids []int32, out []machine.Outcome) {
	for r := range pids {
		i := r*g.n + int(pids[r])
		g.step[i]++
		if int(g.step[i]) == g.q {
			g.step[i] = 0
			out[r] = machine.Completed
		} else {
			out[r] = 0
		}
	}
}

// FetchIncBatch is K replicas of the fetch-and-increment group of
// Algorithm 5: one counter register per replica, one local estimate
// per (replica, process).
type FetchIncBatch struct {
	k, n int
	ctr  []int64 // [r], the counter register R
	v    []int64 // [r*n + pid], local estimates
}

var _ machine.BatchGroup = (*FetchIncBatch)(nil)

// NewFetchIncBatch builds k replicas of n Algorithm 5 processes each.
func NewFetchIncBatch(k, n int) (*FetchIncBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	return &FetchIncBatch{k: k, n: n, ctr: make([]int64, k), v: make([]int64, k*n)}, nil
}

// K implements machine.BatchGroup.
func (g *FetchIncBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *FetchIncBatch) N() int { return g.n }

// StepBatch implements machine.BatchGroup with the CASGet loop of
// FetchInc.Step on raw registers; every step is a CAS. Like
// stepScanValidate it is branch-free: the CAS succeeds when the
// estimate equals the counter, and either way the estimate ends as the
// counter after the step (incremented on success, re-read on failure).
func (g *FetchIncBatch) StepBatch(pids []int32, out []machine.Outcome) {
	ctr, v, n := g.ctr, g.v, g.n
	for r := range pids {
		i := r*n + int(pids[r])
		c := ctr[r]
		d := c ^ v[i]
		ok := ^((d | -d) >> 63) & 1 // 1 iff the estimate is current
		c += ok
		ctr[r] = c
		v[i] = c
		out[r] = machine.CAS | machine.Outcome(ok)*machine.Completed | machine.Outcome(ok^1)*machine.CASFailed
	}
}
