// Package native provides real-hardware counterparts of the simulated
// algorithms, built on goroutines and sync/atomic: the CAS-loop
// fetch-and-increment counter of Appendix B, a wait-free fetch-and-add
// baseline, a Treiber stack and a Michael–Scott queue, the
// atomic-ticket schedule recorder of Appendix A.2 (method 1), and the
// completion-rate harness behind Figure 5.
//
// Shared-memory steps are counted per goroutine (reads and CAS
// attempts), so the measured completion rate is completions per step,
// directly comparable with the simulator and with the paper's
// Θ(1/√n) prediction.
package native

import (
	"errors"
	"sync/atomic"

	"pwf/internal/obs"
)

// ErrBadWorkers is returned for non-positive worker counts.
var ErrBadWorkers = errors.New("native: need at least one worker")

// CASCounter is the lock-free fetch-and-increment counter measured in
// Appendix B: read the value, then try to install value+1 with CAS,
// retrying on failure back to back. It is lock-free but not
// wait-free. The zero value is ready to use.
type CASCounter struct {
	v     atomic.Int64
	stats *obs.OpStats
}

// Instrument attaches wait-free per-operation telemetry (steps, retry
// distribution, CAS failures). Pass nil to detach. The stats path
// itself is wait-free fetch-and-add, so instrumentation cannot break
// the progress properties under measurement; uninstrumented, the only
// cost is one nil check per operation. Not safe to call concurrently
// with Inc.
func (c *CASCounter) Instrument(st *obs.OpStats) { c.stats = st }

// Inc increments the counter and returns the fetched (pre-increment)
// value along with the number of shared-memory steps the operation
// took (each loop iteration costs one read and one CAS).
func (c *CASCounter) Inc() (value int64, steps uint64) {
	var fails uint64
	for {
		v := c.v.Load()
		steps++
		if c.v.CompareAndSwap(v, v+1) {
			steps++
			if c.stats != nil {
				c.stats.ObserveOp(steps, fails)
			}
			return v, steps
		}
		steps++
		fails++
	}
}

// Load returns the current counter value.
func (c *CASCounter) Load() int64 { return c.v.Load() }

// AddCounter is the wait-free baseline: hardware fetch-and-add. Every
// operation takes exactly one step.
type AddCounter struct {
	v     atomic.Int64
	stats *obs.OpStats
}

// Instrument attaches wait-free per-operation telemetry; see
// CASCounter.Instrument.
func (c *AddCounter) Instrument(st *obs.OpStats) { c.stats = st }

// Inc increments and returns the fetched value; always one step.
func (c *AddCounter) Inc() (value int64, steps uint64) {
	v := c.v.Add(1) - 1
	if c.stats != nil {
		c.stats.ObserveOp(1, 0)
	}
	return v, 1
}

// Load returns the current counter value.
func (c *AddCounter) Load() int64 { return c.v.Load() }
