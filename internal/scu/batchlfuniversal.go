package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// lfuBatchCell is the per-(replica, process) state of the batched
// lock-free universal construction: the snapshot of the last read and
// pc, 0 before the read and 1 before the CAS.
type lfuBatchCell struct {
	snapshot int64
	pc       int64
}

// LFUniversalBatch is K replicas of the lock-free universal
// construction in struct-of-arrays form, specialised to the counter
// object and unit operations the sweep's lfuniversal workload runs
// (the scalar LFUniversal keeps the general Object): one versioned
// state register per replica in a dense K-vector, a per-replica
// sequential shadow state, and one cell per (replica, process).
type LFUniversalBatch struct {
	k, n int

	regs  []int64        // [r]: the versioned state register
	state []int64        // [r]: shadow sequential state
	cells []lfuBatchCell // [r*n + pid]

	violations []int // [r]
}

var (
	_ machine.BatchGroup   = (*LFUniversalBatch)(nil)
	_ machine.BatchChecker = (*LFUniversalBatch)(nil)
)

// NewLFUniversalBatch builds k replicas of n processes each applying
// fetch-and-add(1) to a CounterObject: the batched form of
// NewLFUniversal(CounterObject{}, n, 0) with an op stream of ones.
func NewLFUniversalBatch(k, n int) (*LFUniversalBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	return &LFUniversalBatch{
		k: k, n: n,
		regs:       make([]int64, k),
		state:      make([]int64, k),
		cells:      make([]lfuBatchCell, k*n),
		violations: make([]int, k),
	}, nil
}

// K implements machine.BatchGroup.
func (g *LFUniversalBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *LFUniversalBatch) N() int { return g.n }

// lfuCheck builds the post-run invariant error shared by the scalar
// and batched universal-construction forms.
func lfuCheck(violations int) error {
	if violations != 0 {
		return fmt.Errorf("scu: lfuniversal misbehaved: %d violations", violations)
	}
	return nil
}

// CheckReplica implements machine.BatchChecker.
func (g *LFUniversalBatch) CheckReplica(r int) error {
	return lfuCheck(g.violations[r])
}

// StepBatch implements machine.BatchGroup with the exact transition
// logic of LFUniversalProc.Step on raw registers, for the counter
// object and unit ops, in the branch-free form of stepScanValidate: a
// read step snapshots the register, and a CAS step installs the
// snapshot's successor (version and state both one up) when the
// register still equals the snapshot. A commit replays the op on the
// shadow: the response is the state read, so it is a violation unless
// the shadow equals it and the register's 32-bit state is the shadow's
// successor.
func (g *LFUniversalBatch) StepBatch(pids []int32, out []machine.Outcome) {
	cells, regs, state, n := g.cells, g.regs, g.state, g.n
	for r := range pids {
		c := &cells[r*n+int(pids[r])]
		reg, snap, pc := regs[r], c.snapshot, c.pc
		vm := -pc // all-ones on a CAS step
		d := reg ^ snap
		okm := ^((d | -d) >> 63) & vm // all-ones iff the CAS succeeds
		next := encodeVersioned(decodeVersion(snap)+1, decodeState(snap)+1)
		regs[r] = reg ^ ((reg ^ next) & okm)
		st := state[r]
		bad := (st ^ decodeState(snap)) | ((st + 1) ^ decodeState(next))
		g.violations[r] += int((bad|-bad)>>63&okm) & 1
		state[r] = st + okm&1
		c.snapshot = snap ^ ((snap ^ reg) &^ vm)
		c.pc = 1 - pc
		ok := okm & 1
		out[r] = machine.Outcome(ok | pc<<1 | (pc^ok)<<2)
	}
}
