package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// LFUniversal is the lock-free universal construction of the class
// SCU(0, 1): the object's state lives in a single register together
// with a version tag (the paper's "timestamp" making every proposed
// value unique); each operation reads the register, applies the
// sequential Object locally, and commits with one CAS, retrying on
// conflict. It provides minimal progress only — no helping — and is
// the construction the paper argues behaves wait-free in practice.
//
// The state must fit in 32 bits; the upper 32 bits hold the version.
// A Go-side shadow replays every committed operation on the
// sequential Object and cross-checks state and responses, so tests
// catch any lost or duplicated operation.
type LFUniversal struct {
	obj   Object
	base  int
	n     int
	state int64 // shadow sequential state

	ops        uint64
	violations int
}

// LFUniversalLayout is the register footprint of the construction.
const LFUniversalLayout = 1

// NewLFUniversal builds the lock-free universal object for n
// processes at register base.
func NewLFUniversal(obj Object, n, base int) (*LFUniversal, error) {
	if obj == nil {
		return nil, fmt.Errorf("%w: nil object", ErrBadParams)
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	return &LFUniversal{obj: obj, base: base, n: n}, nil
}

// Violations returns the number of committed operations whose outcome
// disagreed with the sequential shadow.
func (u *LFUniversal) Violations() int { return u.violations }

// Ops returns the number of committed operations.
func (u *LFUniversal) Ops() uint64 { return u.ops }

// Check reports the post-run invariant error (shadow disagreements),
// byte-identical to what the batched form's CheckReplica reports for
// the same run.
func (u *LFUniversal) Check() error { return lfuCheck(u.violations) }

// State returns the shadow sequential state.
func (u *LFUniversal) State() int64 { return u.state }

// encode packs a version and a 32-bit state into a register value.
// Versions count committed operations and stay below 2^31 in any
// feasible run, keeping the packed value positive.
func encodeVersioned(version int64, state int64) int64 {
	return version<<32 | (state & 0xffffffff)
}

func decodeState(v int64) int64 {
	s := v & 0xffffffff
	if s&0x80000000 != 0 { // sign-extend 32-bit state
		s |= ^int64(0xffffffff)
	}
	return s
}

func decodeVersion(v int64) int64 { return v >> 32 }

// onCommit replays one committed op on the shadow and validates.
func (u *LFUniversal) onCommit(op, newState, response int64) {
	wantState, wantResp := u.obj.Apply(u.state, op)
	if wantState != newState || wantResp != response {
		u.violations++
	}
	u.state = wantState
	u.ops++
}

// lfPhase is the per-process position.
type lfPhase int

const (
	lfRead lfPhase = iota + 1
	lfCAS
)

// LFUniversalProc is one process applying an operation stream to an
// LFUniversal object. Ops come from the workload function, invoked
// once per operation with the process id and the 1-based operation
// sequence number.
type LFUniversalProc struct {
	u   *LFUniversal
	pid int
	ops func(pid int, seq int64) int64

	phase    lfPhase
	snapshot int64
	seq      int64
	resp     int64 // response of the last committed operation
}

var _ machine.Process = (*LFUniversalProc)(nil)

// Process builds the pid-th process with the given operation stream.
func (u *LFUniversal) Process(pid int, ops func(pid int, seq int64) int64) (*LFUniversalProc, error) {
	if pid < 0 || pid >= u.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, u.n)
	}
	if ops == nil {
		return nil, fmt.Errorf("%w: nil op stream", ErrBadParams)
	}
	return &LFUniversalProc{u: u, pid: pid, ops: ops, phase: lfRead, seq: 1}, nil
}

// Processes builds all n processes sharing one operation stream
// function.
func (u *LFUniversal) Processes(ops func(pid int, seq int64) int64) ([]machine.Process, error) {
	procs := make([]machine.Process, u.n)
	for pid := 0; pid < u.n; pid++ {
		p, err := u.Process(pid, ops)
		if err != nil {
			return nil, err
		}
		procs[pid] = p
	}
	return procs, nil
}

// Step implements machine.Process.
func (p *LFUniversalProc) Step(mem *shmem.Memory) bool {
	switch p.phase {
	case lfRead:
		p.snapshot = mem.Read(p.u.base)
		p.phase = lfCAS
		return false
	case lfCAS:
		op := p.ops(p.pid, p.seq)
		newState, resp := p.u.obj.Apply(decodeState(p.snapshot), op)
		next := encodeVersioned(decodeVersion(p.snapshot)+1, newState)
		if mem.CAS(p.u.base, p.snapshot, next) {
			p.u.onCommit(op, decodeState(next), resp)
			p.resp = resp
			p.seq++
			p.phase = lfRead
			return true
		}
		p.phase = lfRead
		return false
	default:
		p.phase = lfRead
		mem.Read(p.u.base)
		return false
	}
}
