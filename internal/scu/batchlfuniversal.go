package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// lfuBatchCell is the per-(replica, process) state of the batched
// lock-free universal construction.
type lfuBatchCell struct {
	snapshot int64
	seq      int64
	pc       int8
	_        [7]byte
}

// LFUniversalBatch is K replicas of the lock-free universal
// construction in struct-of-arrays form: one versioned state register
// per replica in a dense K-vector, a per-replica sequential shadow
// state, and one cell per (replica, process). The inner loop keeps the
// scalar's read/CAS switch: the sequential Object is applied through
// an interface call on every CAS attempt, so there is nothing to mask
// away arithmetically — the win here is the amortized dispatch and
// the dense register vector.
type LFUniversalBatch struct {
	k, n int
	obj  Object
	ops  func(pid int, seq int64) int64

	regs  []int64        // [r]: the versioned state register
	state []int64        // [r]: shadow sequential state
	cells []lfuBatchCell // [r*n + pid]

	violations []int // [r]
}

var (
	_ machine.BatchGroup   = (*LFUniversalBatch)(nil)
	_ machine.BatchChecker = (*LFUniversalBatch)(nil)
)

// NewLFUniversalBatch builds k replicas of n processes applying the
// shared operation stream ops to the universal object obj.
func NewLFUniversalBatch(obj Object, k, n int, ops func(pid int, seq int64) int64) (*LFUniversalBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if obj == nil {
		return nil, fmt.Errorf("%w: nil object", ErrBadParams)
	}
	if ops == nil {
		return nil, fmt.Errorf("%w: nil op stream", ErrBadParams)
	}
	g := &LFUniversalBatch{
		k: k, n: n, obj: obj, ops: ops,
		regs:       make([]int64, k),
		state:      make([]int64, k),
		cells:      make([]lfuBatchCell, k*n),
		violations: make([]int, k),
	}
	for i := range g.cells {
		g.cells[i].pc = int8(lfRead)
		g.cells[i].seq = 1
	}
	return g, nil
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
// logic of LFUniversalProc.Step on raw registers.
func (g *LFUniversalBatch) StepBatch(pids []int32, out []machine.Outcome) {
	for r := range pids {
		pid := int(pids[r])
		c := &g.cells[r*g.n+pid]
		var o machine.Outcome

		switch lfPhase(c.pc) {
		case lfRead:
			c.snapshot = g.regs[r]
			c.pc = int8(lfCAS)
		case lfCAS:
			op := g.ops(pid, c.seq)
			newState, resp := g.obj.Apply(decodeState(c.snapshot), op)
			next := encodeVersioned(decodeVersion(c.snapshot)+1, newState)
			o = machine.CAS | machine.CASFailed
			if g.regs[r] == c.snapshot {
				g.regs[r] = next
				// Linearization: replay on the shadow and validate.
				wantState, wantResp := g.obj.Apply(g.state[r], op)
				if wantState != decodeState(next) || wantResp != resp {
					g.violations[r]++
				}
				g.state[r] = wantState
				c.seq++
				o = machine.CAS | machine.Completed
			}
			c.pc = int8(lfRead)
		default:
			c.pc = int8(lfRead)
		}
		out[r] = o
	}
}
