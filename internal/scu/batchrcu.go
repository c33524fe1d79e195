package scu

import (
	"fmt"

	"pwf/internal/machine"
)

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
// form: a dense K-vector of version registers, replica-major snapshot
// registers and pool metadata, and one cell per (replica, process).
//
// The scalar RCU's shadow is a map from published version ref to
// snapshot value, with a slot's previous entry deleted when the slot
// is reallocated. At most one entry per slot is ever reachable: a
// reader holding an old ref pins the slot (so it cannot be
// reallocated or republished), and once no reader holds it the entry
// is dead until the delete at reallocation. The batch form therefore
// replaces the map with two per-slot arrays (expectRef, expectVal),
// cleared at allocation — same observable validation outcomes, no map
// overhead in the hot loop.
type RCUBatch struct {
	k, n, poolSize, readers, slots int

	versions []int64        // [r]: the version register of replica r
	snaps    []int64        // [r*slots + slot]: snapshot registers
	meta     []nodeMeta     // [r*slots + slot]
	cells    []rcuBatchCell // [r*n + pid]

	expectRef  []int64 // [r*slots + slot]: last published ref of the slot
	expectVal  []int64 // [r*slots + slot]: its snapshot value
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
	slots := (n - readers) * poolSize
	g := &RCUBatch{
		k: k, n: n, poolSize: poolSize, readers: readers, slots: slots,
		versions:   make([]int64, k),
		snaps:      make([]int64, k*slots),
		meta:       make([]nodeMeta, k*slots),
		cells:      make([]rcuBatchCell, k*n),
		expectRef:  make([]int64, k*slots),
		expectVal:  make([]int64, k*slots),
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
		meta := g.meta[r*g.slots : (r+1)*g.slots]
		var o machine.Outcome

		switch rcuPhase(c.pc) {
		case rcuReadVersion:
			setRef(meta, &c.ver, g.versions[r])
			if c.ver == 0 {
				// Nothing published yet: the read completes empty.
				o = machine.Completed
			} else {
				c.pc = int8(rcuReadSnapshot)
			}

		case rcuReadSnapshot:
			slot := refSlot(c.ver)
			snap := g.snaps[r*g.slots+slot]
			// Validate against the per-slot shadow: a zero expectRef
			// (never published since allocation) mismatches any held
			// ref, mirroring the scalar map's !ok case.
			if g.expectRef[r*g.slots+slot] != c.ver || g.expectVal[r*g.slots+slot] != snap {
				g.violations[r]++
			}
			setRef(meta, &c.ver, 0)
			c.pc = int8(rcuReadVersion)
			o = machine.Completed

		case rcuWriteSnapshot:
			if c.slot < 0 {
				updater := pid - g.readers
				c.slot = allocBatch(meta, updater*g.poolSize, g.poolSize)
				if c.slot < 0 {
					if g.errs[r] == nil {
						g.errs[r] = fmt.Errorf("scu: rcu snapshot pool of updater %d exhausted", updater)
					}
					c.pc = int8(rcuStuck)
					break
				}
				meta[c.slot].held++
				// Retire the slot's previous incarnation from the shadow.
				g.expectRef[r*g.slots+int(c.slot)] = 0
			}
			c.seq++
			g.snaps[r*g.slots+int(c.slot)] = proposal(pid, c.seq)
			c.pc = int8(rcuWriterReadVersion)

		case rcuWriterReadVersion:
			setRef(meta, &c.ver, g.versions[r])
			c.pc = int8(rcuPublish)

		case rcuPublish:
			ref := batchRef(meta, int(c.slot))
			if g.versions[r] == c.ver {
				g.versions[r] = ref
				// Linearization: publish the new snapshot.
				if old := g.currentRef[r]; old != 0 {
					meta[refSlot(old)].live = false
				}
				g.currentRef[r] = ref
				meta[c.slot].live = true
				g.expectRef[r*g.slots+int(c.slot)] = ref
				g.expectVal[r*g.slots+int(c.slot)] = proposal(pid, c.seq)
				meta[c.slot].held--
				c.slot = -1
				setRef(meta, &c.ver, 0)
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
