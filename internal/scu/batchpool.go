package scu

// Shared node-pool infrastructure for the replica-batched forms of the
// pointer-based workloads (Stack, Queue, RCU). The scalar forms model
// precise garbage collection with an O(n) heldByAny scan over every
// process's local references at each allocation; the batched forms
// replace that scan with a per-slot reference count maintained
// incrementally, so allocation is O(poolSize) with no per-process
// walk. Each replica's pool numbers owner o's k-th slot
// base + k·owners + o and holds only the rows of one slot per owner
// that some allocation scan has reached: processes use the first few
// slots of their pools, so reserving owners × poolSize slots per
// replica up front would mostly be memory nothing touches.
//
// Equivalence argument (relied on by the byte-identity tests): the
// scalar free condition is !live[slot] && !heldByAny(slot), where
// heldByAny is true iff some process's local variables reference the
// slot. The batched forms route every assignment of a ref-holding
// local (top, next, head, tail, ver) through setRef, which decrements
// the old referent's count and increments the new one, and count the
// in-flight allocation itself (the scalar p.slot field) with an inc
// at allocation and an explicit dec at release. Counts are therefore
// balanced, and held > 0 exactly when some local references the slot
// — a process holding the same slot through two locals counts it
// twice, which is harmless because the scalar test is boolean. alloc
// scans owner o's slots in the scalar order k = 0, 1, …, and a row it
// appends holds never-used slots, free in the scalar pool too, so it
// picks the scalar's (owner, k) and tag. Only the slot number differs
// from the scalar owner·poolSize + k, by a bijection, so a ref is the
// scalar ref relabelled: refs are only compared with each other or
// with null and never reach a result, so every step's Outcome is the
// scalar's.

// nodeMeta is the Go-side (non-simulated) per-slot bookkeeping: the
// ABA tag, the local-reference count, and the reachable-from-the-
// structure liveness bit, in 16 bytes.
type nodeMeta struct {
	tag  int64
	held int32
	live bool
	_    [3]byte
}

// nodeCell is one node's simulated registers (value, next), the raw
// equivalent of the scalar valueReg/nextReg register pair.
type nodeCell struct {
	value int64
	next  int64
}

// poolSlot is a slot's bookkeeping beside its simulated registers.
type poolSlot[R any] struct {
	nodeMeta
	regs R
}

// batchPool is one replica's pool of size slots for each of owners
// owners after base fixed slots, grown by rows.
type batchPool[R any] struct {
	base, owners, size int
	slots              []poolSlot[R] // [base + k·owners + owner]
}

func newBatchPools[R any](k, base, owners, size int) []batchPool[R] {
	pools := make([]batchPool[R], k)
	for r := range pools {
		pools[r] = batchPool[R]{base, owners, size, make([]poolSlot[R], base)}
	}
	return pools
}

// ref packs a slot and its current tag into a register value, like
// the scalar ref: slot+1 keeps 0 as the null reference.
func (p *batchPool[R]) ref(slot int32) int64 {
	return p.slots[slot].tag<<20 | int64(slot+1)
}

// at returns the slot a non-null ref points to.
func (p *batchPool[R]) at(ref int64) *poolSlot[R] { return &p.slots[refSlot(ref)] }

// setRef assigns *field = ref, maintaining the per-slot reference
// counts for both the old and the new referent.
func (p *batchPool[R]) setRef(field *int64, ref int64) {
	if old := *field; old != 0 {
		p.at(old).held--
	}
	if ref != 0 {
		p.at(ref).held++
	}
	*field = ref
}

// alloc returns owner's first free slot (!live && unreferenced) in
// the scalar scan order, appending a zeroed row when the scan first
// reaches it, bumps the slot's tag and counts it as held by the
// allocating process; it returns -1, for the caller to record the
// pool-exhaustion error, when all size slots are in use.
func (p *batchPool[R]) alloc(owner int) int32 {
	for slot, end := p.base+owner, p.base+p.size*p.owners; slot < end; slot += p.owners {
		if slot >= len(p.slots) {
			p.grow()
		}
		if s := &p.slots[slot]; !s.live && s.held == 0 {
			s.tag++
			s.held++
			return int32(slot)
		}
	}
	return -1
}

// grow appends one zeroed row. The capacity doubles in whole rows, up
// to the size rows a pool holds, so a growing pool is copied once per
// doubling rather than at every row, as append's 1.25× growth of a
// large slice would copy it.
func (p *batchPool[R]) grow() {
	n := len(p.slots) + p.owners
	if n > cap(p.slots) {
		rows := min(max(2*(len(p.slots)-p.base)/p.owners, 1), p.size)
		grown := make([]poolSlot[R], len(p.slots), p.base+rows*p.owners)
		copy(grown, p.slots)
		p.slots = grown
	}
	p.slots = p.slots[:n]
}
