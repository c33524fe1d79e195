package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// unboundedBatchCell is the per-(replica, process) state of the
// batched Algorithm 1: the scalar Unbounded's two locals in 16 bytes.
type unboundedBatchCell struct {
	v       int64
	waiting int64
}

// UnboundedBatch is K replicas of the Algorithm 1 workload in
// struct-of-arrays form: one CAS-object register per replica in a
// dense K-vector and one 16-byte cell per (replica, process). The
// scalar read register R is write-never and read-blind, so it needs
// no storage. The step is fully branch-free: Algorithm 1's three
// outcomes (backoff read, CAS success, CAS failure + backoff arm) are
// computed with arithmetic masks, because the backoff-dominated
// schedule makes the branch pattern adversarial for the predictor
// exactly when n is large.
type UnboundedBatch struct {
	k, n       int
	waitFactor int64

	ctr   []int64              // [r]: the CAS object C
	cells []unboundedBatchCell // [r*n + pid]
}

var _ machine.BatchGroup = (*UnboundedBatch)(nil)

// NewUnboundedBatch builds k replicas of n Algorithm 1 processes
// each. A waitFactor of 0 selects the paper's n²; negative factors
// are rejected like the scalar NewUnbounded.
func NewUnboundedBatch(k, n int, waitFactor int64) (*UnboundedBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if waitFactor == 0 {
		waitFactor = int64(n) * int64(n)
	}
	if waitFactor < 1 {
		return nil, fmt.Errorf("%w: waitFactor %d", ErrBadParams, waitFactor)
	}
	return &UnboundedBatch{
		k: k, n: n, waitFactor: waitFactor,
		ctr:   make([]int64, k),
		cells: make([]unboundedBatchCell, k*n),
	}, nil
}

// K implements machine.BatchGroup.
func (g *UnboundedBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *UnboundedBatch) N() int { return g.n }

// StepBatch implements machine.BatchGroup with the exact transition
// logic of Unbounded.Step, expressed with arithmetic masks:
//
//	waiting > 0: read R, waiting--            (nzm selects this arm)
//	CASGet hit:  v++, C++, complete           (succm)
//	CASGet miss: v = C, waiting = factor*C    (failm)
//
// waiting and C are non-negative and v tracks C, so sign-bit masks
// are safe: (w|-w)>>63 is all-ones iff w != 0, and d|-d has the sign
// bit set iff d != 0. The outcome bits are the same masks: every step
// outside the backoff is a CAS, which either completes or fails.
func (g *UnboundedBatch) StepBatch(pids []int32, out []machine.Outcome) {
	cells, ctrs := g.cells, g.ctr
	n, wf := g.n, g.waitFactor
	for r := range pids {
		c := &cells[r*n+int(pids[r])]
		w, v, ctr := c.waiting, c.v, ctrs[r]
		nzm := (w | -w) >> 63 // all-ones iff backing off
		d := ctr - v
		okm := ^((d | -d) >> 63) // all-ones iff the CAS would succeed
		succm := okm &^ nzm
		failm := ^okm &^ nzm
		c.waiting = w + (-1 & nzm) + ((wf * ctr) & failm)
		c.v = v + (1 & succm) + (d & failm)
		ctrs[r] = ctr + (1 & succm)
		out[r] = machine.Outcome(succm&int64(machine.Completed) |
			^nzm&int64(machine.CAS) | failm&int64(machine.CASFailed))
	}
}
