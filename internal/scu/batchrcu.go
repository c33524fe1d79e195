package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// rcuSlot is one snapshot slot of the batched RCU: its snapshot
// register, and the shadow entry of its last publication (the ref and
// the snapshot value published).
type rcuSlot struct {
	snap, expectRef, expectVal int64
}

// rcuBatchCell is the per-(replica, process) state of the batched RCU
// workload: the scalar RCUProc's locals in 24 bytes.
type rcuBatchCell struct {
	ver  int64
	seq  int64
	slot int32
	pc   int8
	_    [3]byte
}

// RCUBatch is K replicas of the RCU workload in struct-of-arrays
// form: a dense K-vector of version registers, one row-grown snapshot
// pool per replica, and one cell per (replica, process).
//
// The scalar RCU's shadow is a map from published version ref to
// snapshot value, with a slot's previous entry deleted when the slot
// is reallocated. At most one entry per slot is ever reachable: a
// reader holding an old ref pins the slot (so it cannot be
// reallocated or republished), and once no reader holds it the entry
// is dead until the delete at reallocation. The batch form therefore
// replaces the map with two per-slot fields (rcuSlot's expectRef and
// expectVal), cleared at allocation — same observable validation
// outcomes, no map overhead in the hot loop.
type RCUBatch struct {
	k, n, readers int

	versions []int64              // [r]: the version register of replica r
	pools    []batchPool[rcuSlot] // [r]
	cells    []rcuBatchCell       // [r*n + pid]

	currentRef []int64 // [r]
	violations []int   // [r]
	errs       []error // [r]
}

var (
	_ machine.BatchGroup   = (*RCUBatch)(nil)
	_ machine.BatchChecker = (*RCUBatch)(nil)
)

// NewRCUBatch builds k replicas of the n-process RCU workload, of
// which the first readers processes only read, with poolSize snapshot
// slots per updater.
func NewRCUBatch(k, n, readers, poolSize int) (*RCUBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if poolSize < 1 {
		return nil, fmt.Errorf("%w: poolSize=%d", ErrBadParams, poolSize)
	}
	if readers < 0 || readers >= n {
		return nil, fmt.Errorf("%w: readers=%d of n=%d (need 0 <= readers < n)",
			ErrBadParams, readers, n)
	}
	g := &RCUBatch{
		k: k, n: n, readers: readers,
		versions:   make([]int64, k),
		pools:      newBatchPools[rcuSlot](k, 0, n-readers, poolSize),
		cells:      make([]rcuBatchCell, k*n),
		currentRef: make([]int64, k),
		violations: make([]int, k),
		errs:       make([]error, k),
	}
	for r := 0; r < k; r++ {
		for pid := 0; pid < n; pid++ {
			c := &g.cells[r*n+pid]
			c.slot = -1
			if pid < readers {
				c.pc = int8(rcuReadVersion)
			} else {
				c.pc = int8(rcuWriteSnapshot)
			}
		}
	}
	return g, nil
}

// K implements machine.BatchGroup.
func (g *RCUBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *RCUBatch) N() int { return g.n }

// rcuCheck builds the post-run invariant error shared by the scalar
// and batched RCU forms.
func rcuCheck(violations int, err error) error {
	if violations != 0 || err != nil {
		return fmt.Errorf("scu: rcu misbehaved: %d violations, %v", violations, err)
	}
	return nil
}

// CheckReplica implements machine.BatchChecker.
func (g *RCUBatch) CheckReplica(r int) error {
	return rcuCheck(g.violations[r], g.errs[r])
}

// StepBatch implements machine.BatchGroup with the exact transition
// logic of RCUProc.Step on raw registers.
func (g *RCUBatch) StepBatch(pids []int32, out []machine.Outcome) {
	for r := range pids {
		pid := int(pids[r])
		c := &g.cells[r*g.n+pid]
		p := &g.pools[r]
		var o machine.Outcome

		switch rcuPhase(c.pc) {
		case rcuReadVersion:
			p.setRef(&c.ver, g.versions[r])
			if c.ver == 0 {
				// Nothing published yet: the read completes empty.
				o = machine.Completed
			} else {
				c.pc = int8(rcuReadSnapshot)
			}

		case rcuReadSnapshot:
			s := &p.at(c.ver).regs
			// Validate against the per-slot shadow: a zero expectRef
			// (never published since allocation) mismatches any held
			// ref, mirroring the scalar map's !ok case.
			if s.expectRef != c.ver || s.expectVal != s.snap {
				g.violations[r]++
			}
			p.setRef(&c.ver, 0)
			c.pc = int8(rcuReadVersion)
			o = machine.Completed

		case rcuWriteSnapshot:
			if c.slot < 0 {
				updater := pid - g.readers
				if c.slot = p.alloc(updater); c.slot < 0 {
					if g.errs[r] == nil {
						g.errs[r] = fmt.Errorf("scu: rcu snapshot pool of updater %d exhausted", updater)
					}
					c.pc = int8(rcuStuck)
					break
				}
				// Retire the slot's previous incarnation from the shadow.
				p.slots[c.slot].regs.expectRef = 0
			}
			c.seq++
			p.slots[c.slot].regs.snap = proposal(pid, c.seq)
			c.pc = int8(rcuWriterReadVersion)

		case rcuWriterReadVersion:
			p.setRef(&c.ver, g.versions[r])
			c.pc = int8(rcuPublish)

		case rcuPublish:
			ref := p.ref(c.slot)
			if g.versions[r] == c.ver {
				g.versions[r] = ref
				// Linearization: publish the new snapshot.
				if old := g.currentRef[r]; old != 0 {
					p.at(old).live = false
				}
				g.currentRef[r] = ref
				s := &p.slots[c.slot]
				s.live = true
				s.held--
				s.regs.expectRef = ref
				s.regs.expectVal = proposal(pid, c.seq)
				c.slot = -1
				p.setRef(&c.ver, 0)
				c.pc = int8(rcuWriteSnapshot)
				o = machine.CAS | machine.Completed
			} else {
				// Validation failed: re-read V and retry the publish.
				o = machine.CAS | machine.CASFailed
				c.pc = int8(rcuWriterReadVersion)
			}

		case rcuStuck:
			// Pool exhausted: spin harmlessly, like the scalar.

		default:
			c.pc = int8(rcuReadVersion)
		}
		out[r] = o
	}
}
