package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// stackBatchCell is the per-(replica, process) state of the batched
// Treiber stack: the scalar StackProc's locals packed into 32 bytes so
// a step touches at most two cache lines of per-process state.
type stackBatchCell struct {
	top  int64
	next int64
	seq  int64
	slot int32
	pc   int8
	_    [3]byte
}

// StackBatch is K replicas of the Treiber stack workload in
// struct-of-arrays form: per-replica top registers in a dense K-vector,
// one row-grown node pool per replica, and one 32-byte cell per
// (replica, process). The precise-GC allocation scan uses the
// refcounted pool of batchpool.go instead of the scalar O(n)
// heldByAny walk; everything else transitions exactly like
// StackProc.Step, including the quirks the allocator depends on (a
// completed empty pop leaves the stale next reference in place, and a
// pop holds its top reference through the value read).
type StackBatch struct {
	k, n int

	tops  []int64               // [r]: the top register of replica r
	pools []batchPool[nodeCell] // [r]
	cells []stackBatchCell      // [r*n + pid]

	shadows    [][]int64 // [r]: shadow stack, bottom to top
	violations []int     // [r]
	errs       []error   // [r]: first structural error
}

var (
	_ machine.BatchGroup   = (*StackBatch)(nil)
	_ machine.BatchChecker = (*StackBatch)(nil)
)

// NewStackBatch builds k replicas of the n-process Treiber stack
// workload with poolSize node slots per process, every replica on its
// own zeroed register block.
func NewStackBatch(k, n, poolSize int) (*StackBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if poolSize < 1 {
		return nil, fmt.Errorf("%w: poolSize=%d", ErrBadParams, poolSize)
	}
	g := &StackBatch{
		k: k, n: n,
		tops:       make([]int64, k),
		pools:      newBatchPools[nodeCell](k, 0, n, poolSize),
		cells:      make([]stackBatchCell, k*n),
		shadows:    make([][]int64, k),
		violations: make([]int, k),
		errs:       make([]error, k),
	}
	for i := range g.cells {
		g.cells[i].slot = -1
		g.cells[i].pc = int8(stackPushWriteValue)
	}
	return g, nil
}

// K implements machine.BatchGroup.
func (g *StackBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *StackBatch) N() int { return g.n }

// stackCheck builds the post-run invariant error shared by the scalar
// and batched stack forms.
func stackCheck(violations int, err error) error {
	if violations != 0 || err != nil {
		return fmt.Errorf("scu: stack misbehaved: %d violations, %v", violations, err)
	}
	return nil
}

// CheckReplica implements machine.BatchChecker.
func (g *StackBatch) CheckReplica(r int) error {
	return stackCheck(g.violations[r], g.errs[r])
}

// StepBatch implements machine.BatchGroup with the exact transition
// logic of StackProc.Step on raw registers.
func (g *StackBatch) StepBatch(pids []int32, out []machine.Outcome) {
	for r := range pids {
		pid := int(pids[r])
		c := &g.cells[r*g.n+pid]
		p := &g.pools[r]
		var o machine.Outcome

		switch stackPhase(c.pc) {
		case stackPushWriteValue:
			if c.slot < 0 {
				if c.slot = p.alloc(pid); c.slot < 0 {
					if g.errs[r] == nil {
						g.errs[r] = fmt.Errorf("scu: stack node pool of process %d exhausted", pid)
					}
					c.pc = int8(stackStuck)
					break
				}
			}
			c.seq++
			p.slots[c.slot].regs.value = proposal(pid, c.seq)
			c.pc = int8(stackPushReadTop)

		case stackPushReadTop:
			p.setRef(&c.top, g.tops[r])
			c.pc = int8(stackPushWriteNext)

		case stackPushWriteNext:
			p.slots[c.slot].regs.next = c.top
			c.pc = int8(stackPushCAS)

		case stackPushCAS:
			ref := p.ref(c.slot)
			if g.tops[r] == c.top {
				g.tops[r] = ref
				// Linearization: push onto the shadow, mark live.
				g.shadows[r] = append(g.shadows[r], ref)
				p.slots[c.slot].live = true
				p.slots[c.slot].held--
				c.slot = -1
				p.setRef(&c.top, 0)
				c.pc = int8(stackPopReadTop)
				o = machine.CAS | machine.Completed
			} else {
				o = machine.CAS | machine.CASFailed
				c.pc = int8(stackPushReadTop)
			}

		case stackPopReadTop:
			p.setRef(&c.top, g.tops[r])
			if c.top == 0 {
				// Empty pop completes; like the scalar, the stale next
				// reference is kept (it pins its slot until overwritten).
				c.pc = int8(stackPushWriteValue)
				o = machine.Completed
			} else {
				c.pc = int8(stackPopReadNext)
			}

		case stackPopReadNext:
			p.setRef(&c.next, p.at(c.top).regs.next)
			c.pc = int8(stackPopCAS)

		case stackPopCAS:
			if g.tops[r] == c.top {
				g.tops[r] = c.next
				// Linearization: check against and pop the shadow.
				sh := g.shadows[r]
				if len(sh) == 0 || sh[len(sh)-1] != c.top {
					g.violations[r]++
				} else {
					g.shadows[r] = sh[:len(sh)-1]
				}
				p.at(c.top).live = false
				o = machine.CAS
				c.pc = int8(stackPopReadValue)
			} else {
				o = machine.CAS | machine.CASFailed
				c.pc = int8(stackPopReadTop)
			}

		case stackPopReadValue:
			_ = p.at(c.top).regs.value
			p.setRef(&c.top, 0)
			p.setRef(&c.next, 0)
			c.pc = int8(stackPushWriteValue)
			o = machine.Completed

		case stackStuck:
			// Pool exhausted: spin harmlessly, like the scalar.

		default:
			c.pc = int8(stackPushWriteValue)
		}
		out[r] = o
	}
}
