// Package shmem provides the simulated shared-memory substrate of the
// model in Section 2.1: a finite array of atomic registers supporting
// read, write, compare-and-swap, and the augmented compare-and-swap
// (which returns the current value; Section 7 uses it for the simpler
// fetch-and-increment counter).
//
// The simulation is discrete-time and single-threaded: the scheduler
// picks one process per time unit and that process performs exactly
// one shared-memory operation. Memory therefore needs no internal
// locking; the machine package serialises access.
//
// Every operation counts as one system step. Memory keeps per-kind
// operation counters.
package shmem

import "errors"

// Counters aggregates the number of operations by kind.
type Counters struct {
	Reads       uint64
	Writes      uint64
	CASes       uint64
	CASFailures uint64
}

// Total returns the total number of shared-memory operations, i.e. the
// number of system steps spent in memory.
func (c Counters) Total() uint64 { return c.Reads + c.Writes + c.CASes }

// Memory is a finite array of simulated atomic registers. The zero
// value is unusable; construct with New.
type Memory struct {
	regs     []int64
	counters Counters
}

// New allocates a memory with size registers, all initially zero.
func New(size int) (*Memory, error) {
	if size < 0 {
		return nil, errors.New("shmem: negative size")
	}
	return &Memory{regs: make([]int64, size)}, nil
}

// Size returns the number of registers.
func (m *Memory) Size() int { return len(m.regs) }

// Reset zeroes every register and clears the counters. The
// register count is unchanged.
func (m *Memory) Reset() {
	for i := range m.regs {
		m.regs[i] = 0
	}
	m.counters = Counters{}
}

// Read returns the value of register r. Out-of-range register indices
// panic, exactly like slice indexing: register handles are allocated
// by the caller at construction time, so a bad index is a programming
// error, not a runtime condition.
func (m *Memory) Read(r int) int64 {
	v := m.regs[r]
	m.counters.Reads++
	return v
}

// Write sets register r to v.
func (m *Memory) Write(r int, v int64) {
	m.regs[r] = v
	m.counters.Writes++
}

// CAS atomically compares register r with expected and, on a match,
// writes newVal. It returns true on success (Section 2.1 semantics).
func (m *Memory) CAS(r int, expected, newVal int64) bool {
	old := m.regs[r]
	ok := old == expected
	if ok {
		m.regs[r] = newVal
	}
	m.counters.CASes++
	if !ok {
		m.counters.CASFailures++
	}
	return ok
}

// CASGet is the augmented compare-and-swap of Section 7: it behaves
// like CAS but returns the register's value prior to the operation,
// matching architectures whose CAS returns the current value.
func (m *Memory) CASGet(r int, expected, newVal int64) (prior int64, swapped bool) {
	old := m.regs[r]
	ok := old == expected
	if ok {
		m.regs[r] = newVal
	}
	m.counters.CASes++
	if !ok {
		m.counters.CASFailures++
	}
	return old, ok
}

// Peek returns register r's value without counting a step. It exists
// for assertions and metrics, never for algorithm steps.
func (m *Memory) Peek(r int) int64 { return m.regs[r] }

// Poke sets register r without counting a step; for test setup only.
func (m *Memory) Poke(r int, v int64) { m.regs[r] = v }

// Counters returns a snapshot of the operation counters.
func (m *Memory) Counters() Counters { return m.counters }

// Steps returns the total number of shared-memory operations executed.
func (m *Memory) Steps() uint64 { return m.counters.Total() }
