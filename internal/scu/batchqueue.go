package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// queueBatchCell is the per-(replica, process) state of the batched
// Michael–Scott queue: the scalar QueueProc's locals packed into 40
// bytes (the scalar value local is a write-only log input and is
// dropped).
type queueBatchCell struct {
	head int64
	tail int64
	next int64
	seq  int64
	slot int32
	pc   int8
	_    [3]byte
}

// QueueBatch is K replicas of the Michael–Scott queue workload in
// struct-of-arrays form: dense K-vectors for the head and tail
// registers, one row-grown node pool per replica, and one cell per
// (replica, process). Each replica's pool carries the initial dummy
// in slot 0, before its first row, installed at construction exactly
// as the scalar Init does with Poke.
type QueueBatch struct {
	k, n int

	heads []int64               // [r]
	tails []int64               // [r]
	pools []batchPool[nodeCell] // [r]
	cells []queueBatchCell      // [r*n + pid]

	shadows    []refFIFO // [r]: shadow FIFO of refs
	violations []int     // [r]
	errs       []error   // [r]
}

var (
	_ machine.BatchGroup   = (*QueueBatch)(nil)
	_ machine.BatchChecker = (*QueueBatch)(nil)
)

// NewQueueBatch builds k replicas of the n-process Michael–Scott queue
// workload with poolSize node slots per process, each replica
// initialized with its own dummy node (head = tail = dummy, tag 1).
func NewQueueBatch(k, n, poolSize int) (*QueueBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if poolSize < 1 {
		return nil, fmt.Errorf("%w: poolSize=%d", ErrBadParams, poolSize)
	}
	g := &QueueBatch{
		k: k, n: n,
		heads:      make([]int64, k),
		tails:      make([]int64, k),
		pools:      newBatchPools[nodeCell](k, 1, n, poolSize), // slot 0: the dummy
		cells:      make([]queueBatchCell, k*n),
		shadows:    make([]refFIFO, k),
		violations: make([]int, k),
		errs:       make([]error, k),
	}
	for r := range g.pools {
		g.pools[r].slots[0].nodeMeta = nodeMeta{tag: 1, live: true}
		g.heads[r], g.tails[r] = g.pools[r].ref(0), g.pools[r].ref(0)
	}
	for i := range g.cells {
		g.cells[i].slot = -1
		g.cells[i].pc = int8(queueEnqWriteValue)
	}
	return g, nil
}

// K implements machine.BatchGroup.
func (g *QueueBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *QueueBatch) N() int { return g.n }

// queueCheck builds the post-run invariant error shared by the scalar
// and batched queue forms.
func queueCheck(violations int, err error) error {
	if violations != 0 || err != nil {
		return fmt.Errorf("scu: queue misbehaved: %d violations, %v", violations, err)
	}
	return nil
}

// CheckReplica implements machine.BatchChecker.
func (g *QueueBatch) CheckReplica(r int) error {
	return queueCheck(g.violations[r], g.errs[r])
}

// StepBatch implements machine.BatchGroup with the exact transition
// logic of QueueProc.Step on raw registers.
func (g *QueueBatch) StepBatch(pids []int32, out []machine.Outcome) {
	for r := range pids {
		pid := int(pids[r])
		c := &g.cells[r*g.n+pid]
		p := &g.pools[r]
		var o machine.Outcome

		switch queuePhase(c.pc) {
		case queueEnqWriteValue:
			if c.slot < 0 {
				if c.slot = p.alloc(pid); c.slot < 0 {
					if g.errs[r] == nil {
						g.errs[r] = fmt.Errorf("scu: queue node pool of process %d exhausted", pid)
					}
					c.pc = int8(queueStuck)
					break
				}
			}
			c.seq++
			p.slots[c.slot].regs.value = proposal(pid, c.seq)
			c.pc = int8(queueEnqWriteNext)

		case queueEnqWriteNext:
			p.slots[c.slot].regs.next = 0
			c.pc = int8(queueEnqReadTail)

		case queueEnqReadTail:
			p.setRef(&c.tail, g.tails[r])
			c.pc = int8(queueEnqReadTailNext)

		case queueEnqReadTailNext:
			p.setRef(&c.next, p.at(c.tail).regs.next)
			if c.next != 0 {
				c.pc = int8(queueEnqSwingStale)
			} else {
				c.pc = int8(queueEnqCASNext)
			}

		case queueEnqSwingStale:
			// Helping: the tail lags; try to advance it, then retry.
			o = machine.CAS | machine.CASFailed
			if g.tails[r] == c.tail {
				g.tails[r] = c.next
				o = machine.CAS
			}
			c.pc = int8(queueEnqReadTail)

		case queueEnqCASNext:
			ref := p.ref(c.slot)
			if target := &p.at(c.tail).regs.next; *target == 0 {
				*target = ref
				// Linearization point of the enqueue.
				g.shadows[r].push(ref)
				p.slots[c.slot].live = true
				o = machine.CAS
				c.pc = int8(queueEnqSwingTail)
			} else {
				o = machine.CAS | machine.CASFailed
				c.pc = int8(queueEnqReadTail)
			}

		case queueEnqSwingTail:
			o = machine.CAS | machine.CASFailed | machine.Completed
			if g.tails[r] == c.tail {
				g.tails[r] = p.ref(c.slot)
				o = machine.CAS | machine.Completed
			}
			p.slots[c.slot].held--
			c.slot = -1
			p.setRef(&c.head, 0)
			p.setRef(&c.tail, 0)
			p.setRef(&c.next, 0)
			c.pc = int8(queueDeqReadHead)

		case queueDeqReadHead:
			p.setRef(&c.head, g.heads[r])
			c.pc = int8(queueDeqReadTail)

		case queueDeqReadTail:
			p.setRef(&c.tail, g.tails[r])
			c.pc = int8(queueDeqReadHeadNext)

		case queueDeqReadHeadNext:
			p.setRef(&c.next, p.at(c.head).regs.next)
			if c.head == c.tail {
				if c.next == 0 {
					// Empty dequeue completes.
					p.setRef(&c.head, 0)
					p.setRef(&c.tail, 0)
					c.pc = int8(queueEnqWriteValue)
					o = machine.Completed
				} else {
					c.pc = int8(queueDeqSwingStale)
				}
			} else {
				c.pc = int8(queueDeqReadValue)
			}

		case queueDeqSwingStale:
			o = machine.CAS | machine.CASFailed
			if g.tails[r] == c.tail {
				g.tails[r] = c.next
				o = machine.CAS
			}
			c.pc = int8(queueDeqReadHead)

		case queueDeqReadValue:
			_ = p.at(c.next).regs.value
			c.pc = int8(queueDeqCASHead)

		case queueDeqCASHead:
			if g.heads[r] == c.head {
				g.heads[r] = c.next
				// Linearization point of the dequeue: the node holding
				// the value is next; the retired dummy head is freed.
				if !g.shadows[r].popIf(c.next) {
					g.violations[r]++
				}
				p.at(c.head).live = false
				p.setRef(&c.head, 0)
				p.setRef(&c.tail, 0)
				p.setRef(&c.next, 0)
				c.pc = int8(queueEnqWriteValue)
				o = machine.CAS | machine.Completed
			} else {
				o = machine.CAS | machine.CASFailed
				c.pc = int8(queueDeqReadHead)
			}

		case queueStuck:
			// Pool exhausted: spin harmlessly, like the scalar.

		default:
			c.pc = int8(queueDeqReadHead)
		}
		out[r] = o
	}
}

// refFIFO is the queue's shadow FIFO (scalar and batched), buf[head:]
// in enqueue order. push moves it back over the dequeued prefix
// instead of growing buf when that prefix is half of buf, so it stops
// allocating.
type refFIFO struct {
	buf  []int64
	head int
}

func (f *refFIFO) push(ref int64) {
	if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		f.buf, f.head = f.buf[:copy(f.buf, f.buf[f.head:])], 0
	}
	f.buf = append(f.buf, ref)
}

func (f *refFIFO) len() int { return len(f.buf) - f.head }

// popIf removes the front ref if it is ref, and reports whether it was.
func (f *refFIFO) popIf(ref int64) bool {
	if f.head == len(f.buf) || f.buf[f.head] != ref {
		return false
	}
	f.head++
	return true
}
