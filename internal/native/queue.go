package native

import (
	"sync/atomic"

	"pwf/internal/obs"
)

// Queue is a Michael–Scott queue [17] on real atomics with the
// original helping step; the Go garbage collector plays the role of
// the reclamation scheme, as in the paper's experimental setting.
// Its retry loops run back to back. Build one with NewQueue.
type Queue[T any] struct {
	head  atomic.Pointer[queueNode[T]]
	tail  atomic.Pointer[queueNode[T]]
	stats *obs.OpStats
}

// Instrument attaches wait-free per-operation telemetry (steps, retry
// distribution including helping detours, CAS failures) shared by
// every goroutine using the queue. Pass nil to detach. Not safe to
// call concurrently with Enqueue/Dequeue.
func (q *Queue[T]) Instrument(st *obs.OpStats) { q.stats = st }

type queueNode[T any] struct {
	value T
	next  atomic.Pointer[queueNode[T]]
}

// NewQueue builds an empty queue with its initial dummy node.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	dummy := &queueNode[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Enqueue appends v and returns the number of shared-memory steps.
func (q *Queue[T]) Enqueue(v T) (steps uint64) {
	n := &queueNode[T]{value: v}
	var fails uint64
	for {
		tail := q.tail.Load()
		steps++
		next := tail.next.Load()
		steps++
		if next != nil {
			// Tail lags: help swing it and retry.
			q.tail.CompareAndSwap(tail, next)
			steps++
			fails++
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			steps++
			// Best-effort swing; failure is fine (someone helped).
			q.tail.CompareAndSwap(tail, n)
			steps++
			if q.stats != nil {
				q.stats.ObserveOp(steps, fails)
			}
			return steps
		}
		steps++
		fails++
	}
}

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty. steps counts shared-memory operations.
func (q *Queue[T]) Dequeue() (v T, ok bool, steps uint64) {
	var fails uint64
	for {
		head := q.head.Load()
		steps++
		tail := q.tail.Load()
		steps++
		next := head.next.Load()
		steps++
		if head == tail {
			if next == nil {
				if q.stats != nil {
					q.stats.ObserveOp(steps, fails)
				}
				return v, false, steps
			}
			// Tail lags: help.
			q.tail.CompareAndSwap(tail, next)
			steps++
			fails++
			continue
		}
		value := next.value
		if q.head.CompareAndSwap(head, next) {
			steps++
			if q.stats != nil {
				q.stats.ObserveOp(steps, fails)
			}
			return value, true, steps
		}
		steps++
		fails++
	}
}

// Empty reports whether the queue looked empty at the moment of the
// call.
func (q *Queue[T]) Empty() bool {
	head := q.head.Load()
	return head.next.Load() == nil
}
