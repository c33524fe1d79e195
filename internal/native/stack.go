package native

import (
	"sync/atomic"

	"pwf/internal/obs"
)

// Stack is a Treiber stack [21] on real atomics. Node reclamation is
// handled by the Go garbage collector, which is exactly the setting
// the paper's class SCU models (no ABA: a node address cannot be
// reused while any goroutine still references it).
//
// The zero value is an empty stack whose retry loop issues CAS
// attempts back to back, exactly as the paper's SCU model assumes.
type Stack[T any] struct {
	top   atomic.Pointer[stackNode[T]]
	stats *obs.OpStats
}

// Instrument attaches wait-free per-operation telemetry (steps, retry
// distribution, CAS failures) shared by every goroutine using the
// stack. Pass nil to detach. Not safe to call concurrently with
// Push/Pop.
func (s *Stack[T]) Instrument(st *obs.OpStats) { s.stats = st }

type stackNode[T any] struct {
	value T
	next  *stackNode[T]
}

// Push adds v on top of the stack and returns the number of
// shared-memory steps taken (one read plus one CAS per attempt).
func (s *Stack[T]) Push(v T) (steps uint64) {
	n := &stackNode[T]{value: v}
	var fails uint64
	for {
		top := s.top.Load()
		steps++
		n.next = top
		if s.top.CompareAndSwap(top, n) {
			steps++
			s.complete(steps, fails)
			return steps
		}
		steps++
		fails++
	}
}

// Pop removes and returns the top value; ok is false when the stack
// is empty. steps counts shared-memory operations.
func (s *Stack[T]) Pop() (v T, ok bool, steps uint64) {
	var fails uint64
	for {
		top := s.top.Load()
		steps++
		if top == nil {
			s.complete(steps, fails)
			return v, false, steps
		}
		next := top.next
		steps++ // reading top.next touches shared memory
		if s.top.CompareAndSwap(top, next) {
			steps++
			s.complete(steps, fails)
			return top.value, true, steps
		}
		steps++
		fails++
	}
}

// complete records the optional telemetry shared by every exit path.
func (s *Stack[T]) complete(steps, fails uint64) {
	if s.stats != nil {
		s.stats.ObserveOp(steps, fails)
	}
}

// Empty reports whether the stack is empty at the moment of the call.
func (s *Stack[T]) Empty() bool { return s.top.Load() == nil }
