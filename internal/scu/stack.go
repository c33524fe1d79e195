package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// Stack is a Treiber stack [21] realised on simulated shared memory.
// It is the canonical member of SCU(q, s): a push writes its node
// (preamble), then loops {read top; write node.next; CAS top}; a pop
// loops {read top; read top.next; CAS top} and then reads the popped
// value.
//
// Nodes live in a register slab, partitioned into per-process pools.
// References stored in registers are tagged with a per-slot reuse
// counter, so a reference value never repeats and the simulated CAS
// is immune to ABA. Node reclamation is modelled as garbage
// collection: liveness bookkeeping is Go-side instrumentation that
// costs no simulated steps (mirroring how the paper's native
// experiments rely on the runtime allocator, whose cost is not a
// shared-memory step).
//
// The Stack also maintains a *shadow stack* updated at each
// linearization point (successful CAS). Every pop is checked against
// the shadow top, so any atomicity violation in the simulation would
// be caught immediately; tests assert Violations() == 0.
type Stack struct {
	base     int // top register
	n        int
	poolSize int

	live  []bool  // per-slot: node currently reachable from top
	tags  []int64 // per-slot reuse counter
	procs []*StackProc

	shadow     []int64 // refs in stack order, bottom to top
	violations int
	pushes     uint64
	pops       uint64
	err        error
}

// NewStack builds a Treiber stack for n processes with poolSize node
// slots per process, occupying StackLayout(n, poolSize) registers from
// base.
func NewStack(n, poolSize, base int) (*Stack, error) {
	if n < 1 || poolSize < 1 {
		return nil, fmt.Errorf("%w: n=%d poolSize=%d", ErrBadParams, n, poolSize)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	slots := n * poolSize
	return &Stack{
		base:     base,
		n:        n,
		poolSize: poolSize,
		live:     make([]bool, slots),
		tags:     make([]int64, slots),
	}, nil
}

// StackLayout returns the number of registers a Stack for n processes
// with poolSize slots per process occupies: one top register plus two
// registers (value, next) per node slot.
func StackLayout(n, poolSize int) int { return 1 + 2*n*poolSize }

// ref packs a slot index and its reuse tag into a register value;
// slot+1 keeps 0 as the null reference.
func (st *Stack) ref(slot int) int64 { return st.tags[slot]<<20 | int64(slot+1) }

// MaxPoolSlots is the most slots a ref can number: slot+1 fills its low 20 bits.
const MaxPoolSlots = 1<<20 - 1

func refSlot(ref int64) int { return int(ref&MaxPoolSlots) - 1 }

func (st *Stack) valueReg(slot int) int { return st.base + 1 + 2*slot }
func (st *Stack) nextReg(slot int) int  { return st.base + 2 + 2*slot }

// allocate returns a free slot from pid's pool, or -1 when the pool is
// exhausted (recorded in Err). A slot is free only when it is neither
// reachable from the stack top nor referenced by any process's local
// variables — precise garbage collection, matching the paper's native
// setting where the runtime GC reclaims nodes. This makes node reuse
// race-free without hazard pointers.
func (st *Stack) allocate(pid int) int {
	lo := pid * st.poolSize
	for k := 0; k < st.poolSize; k++ {
		slot := lo + k
		if !st.live[slot] && !st.heldByAny(slot) {
			st.tags[slot]++
			return slot
		}
	}
	if st.err == nil {
		st.err = fmt.Errorf("scu: stack node pool of process %d exhausted", pid)
	}
	return -1
}

// heldByAny reports whether any registered process currently holds a
// local reference to slot.
func (st *Stack) heldByAny(slot int) bool {
	for _, p := range st.procs {
		if p.holds(slot) {
			return true
		}
	}
	return false
}

// Err reports the first structural error (pool exhaustion), if any.
func (st *Stack) Err() error { return st.err }

// Check reports the post-run invariant error (linearizability
// violations or pool exhaustion), byte-identical to what the batched
// form's CheckReplica reports for the same run.
func (st *Stack) Check() error { return stackCheck(st.violations, st.err) }

// Violations returns the number of pops whose value disagreed with the
// shadow stack — always 0 for a correct simulation.
func (st *Stack) Violations() int { return st.violations }

// Depth returns the current stack depth according to the shadow.
func (st *Stack) Depth() int { return len(st.shadow) }

// Pushes and Pops return operation counts.
func (st *Stack) Pushes() uint64 { return st.pushes }
func (st *Stack) Pops() uint64   { return st.pops }

// onPush records a successful push linearization.
func (st *Stack) onPush(ref int64) {
	st.shadow = append(st.shadow, ref)
	st.live[refSlot(ref)] = true
	st.pushes++
}

// onPop records a successful pop linearization and checks it against
// the shadow.
func (st *Stack) onPop(ref int64) {
	if len(st.shadow) == 0 || st.shadow[len(st.shadow)-1] != ref {
		st.violations++
	} else {
		st.shadow = st.shadow[:len(st.shadow)-1]
	}
	st.live[refSlot(ref)] = false
	st.pops++
}

// stackPhase is the per-process state machine position.
type stackPhase int

const (
	stackPushWriteValue stackPhase = iota + 1
	stackPushReadTop
	stackPushWriteNext
	stackPushCAS
	stackPopReadTop
	stackPopReadNext
	stackPopCAS
	stackPopReadValue
	stackStuck
)

// StackProc is one process running an alternating push/pop workload
// against a Stack. Each Step is one shared-memory operation.
type StackProc struct {
	st  *Stack
	pid int

	phase stackPhase
	slot  int   // node being pushed / popped slot
	top   int64 // last observed top
	next  int64 // observed next of the popped node
	seq   int64 // value sequence for pushes

	popped []int64 // values returned by this process's pops
}

var _ machine.Process = (*StackProc)(nil)

// Process builds the pid-th process of the stack workload. The first
// operation is a push, so the stack warms up before pops start
// hitting it.
func (st *Stack) Process(pid int) (*StackProc, error) {
	if pid < 0 || pid >= st.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, st.n)
	}
	p := &StackProc{st: st, pid: pid, phase: stackPushWriteValue, slot: -1}
	st.procs = append(st.procs, p)
	return p, nil
}

// holds reports whether the process's local variables reference slot.
func (p *StackProc) holds(slot int) bool {
	if p.slot == slot {
		return true
	}
	if p.top != 0 && refSlot(p.top) == slot {
		return true
	}
	if p.next != 0 && refSlot(p.next) == slot {
		return true
	}
	return false
}

// Processes builds all n workload processes.
func (st *Stack) Processes() ([]machine.Process, error) {
	procs := make([]machine.Process, st.n)
	for pid := 0; pid < st.n; pid++ {
		p, err := st.Process(pid)
		if err != nil {
			return nil, err
		}
		procs[pid] = p
	}
	return procs, nil
}

// Popped returns the values this process's pops returned, in order
// (0 entries for empty pops).
func (p *StackProc) Popped() []int64 {
	out := make([]int64, len(p.popped))
	copy(out, p.popped)
	return out
}

// Step implements machine.Process.
func (p *StackProc) Step(mem *shmem.Memory) bool {
	switch p.phase {
	case stackPushWriteValue:
		if p.slot < 0 {
			p.slot = p.st.allocate(p.pid)
			if p.slot < 0 {
				p.phase = stackStuck
				return false
			}
		}
		p.seq++
		mem.Write(p.st.valueReg(p.slot), proposal(p.pid, p.seq))
		p.phase = stackPushReadTop
		return false

	case stackPushReadTop:
		p.top = mem.Read(p.st.base)
		p.phase = stackPushWriteNext
		return false

	case stackPushWriteNext:
		mem.Write(p.st.nextReg(p.slot), p.top)
		p.phase = stackPushCAS
		return false

	case stackPushCAS:
		ref := p.st.ref(p.slot)
		if mem.CAS(p.st.base, p.top, ref) {
			p.st.onPush(ref)
			p.slot = -1
			p.top = 0 // drop the local reference for precise GC
			p.phase = stackPopReadTop
			return true
		}
		p.phase = stackPushReadTop
		return false

	case stackPopReadTop:
		p.top = mem.Read(p.st.base)
		if p.top == 0 {
			// Empty pop: the operation completes with "empty".
			p.popped = append(p.popped, 0)
			p.phase = stackPushWriteValue
			return true
		}
		p.phase = stackPopReadNext
		return false

	case stackPopReadNext:
		p.next = mem.Read(p.st.nextReg(refSlot(p.top)))
		p.phase = stackPopCAS
		return false

	case stackPopCAS:
		if mem.CAS(p.st.base, p.top, p.next) {
			p.st.onPop(p.top)
			p.phase = stackPopReadValue
			return false
		}
		p.phase = stackPopReadTop
		return false

	case stackPopReadValue:
		v := mem.Read(p.st.valueReg(refSlot(p.top)))
		p.popped = append(p.popped, v)
		p.top, p.next = 0, 0 // drop local references for precise GC
		p.phase = stackPushWriteValue
		return true

	case stackStuck:
		// Pool exhausted (structural error already recorded): spin
		// harmlessly so the simulation can finish.
		mem.Read(p.st.base)
		return false

	default:
		p.phase = stackPushWriteValue
		mem.Read(p.st.base)
		return false
	}
}

// DrainShadow returns the refs remaining on the shadow stack, top
// first. Tests use it to reconcile pushes against pops.
func (st *Stack) DrainShadow() []int64 {
	out := make([]int64, len(st.shadow))
	for i := range st.shadow {
		out[i] = st.shadow[len(st.shadow)-1-i]
	}
	return out
}
