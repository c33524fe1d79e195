package machine

import (
	"math/bits"

	"pwf/internal/obs"
	"pwf/internal/shmem"
)

// Outcome is what one process step did, as bits: whether it completed
// an operation, whether its shared-memory operation was a CAS, and
// whether that CAS failed. The scalar Sim derives it from the memory's
// operation counters; batch groups set it from the branches and masks
// of their transition (BatchGroup.StepBatch).
type Outcome uint8

// The outcome bits. CASFailed is only ever set together with CAS.
const (
	Completed Outcome = 1 << iota
	CAS
	CASFailed
)

// stepOutcome is the outcome of a scalar step from the memory's
// operation counters around it: the model's one shared-memory
// operation per step makes the delta name the operation kind without
// touching the algorithms.
func stepOutcome(before, after shmem.Counters, completed bool) Outcome {
	var o Outcome
	if completed {
		o = Completed
	}
	if after.CASes != before.CASes {
		o |= CAS
		if after.CASFailures != before.CASFailures {
			o |= CASFailed
		}
	}
	return o
}

// flushEvery bounds how many simulator steps a counting simulator's
// Tally may hold before it is merged into its obs.Metrics, so a live
// registry keeps moving during a long run.
const flushEvery = 1 << 16

// opCell is one process's operation bookkeeping, shared by the event
// and the counting telemetry: CAS attempts and failures in the current
// operation, and flags for an operation in flight and for a retry due
// (the last step failed a CAS).
type opCell struct {
	attempts uint64
	fails    uint64
	flags    uint8
}

// The opCell flags.
const (
	inOp      = 1
	retryNext = 2
)

// advance applies one step's outcome, branch-free. It reports whether
// the step began an operation and whether it resumed after a failed
// CAS (each 0 or 1, never both), the operation's failed CASes before
// the step (a retry's 1-based index), and its CAS attempts including
// the step (the count a completion reports).
func (c *opCell) advance(o Outcome) (begin, retry, fails, attempts uint64) {
	keep := uint64(o&Completed) - 1 // all-ones unless the step completed
	begin = uint64(c.flags&inOp) ^ 1
	retry = uint64(c.flags >> 1)
	fails = c.fails
	attempts = c.attempts + uint64(o>>1)&1
	c.attempts = attempts & keep
	c.fails = (fails + uint64(o>>2)) & keep
	c.flags = uint8((inOp | uint64(o&CASFailed)>>1) & keep)
	return begin, retry, fails, attempts
}

// counter is the counting telemetry of one simulator: the obs.Metrics
// it feeds, the per-job Tally it feeds it from, and the simulator's
// operation bookkeeping, ops[r*n + pid] for process pid of replica r.
// Per step it keeps only what a flush cannot derive: the number of
// steps in each state (the step's Outcome and the stepping process's
// opCell flags before it, which together decide every counter of the
// Tally), the attempts histogram and its sum. Each simulator step
// counts as one scheduling decision per replica, width in all.
type counter struct {
	m         *obs.Metrics
	ops       []opCell
	n         int
	width     uint64
	tally     obs.Tally
	states    [1 << 5]uint64 // steps by uint8(Outcome) | flags<<3
	unflushed uint64
}

// count adds one process step with outcome o, bookkept in op.
func (c *counter) count(op *opCell, o Outcome) {
	c.states[uint8(o)|op.flags<<3]++
	if _, _, _, attempts := op.advance(o); o&Completed != 0 {
		c.tally.AttemptsPerOp[bits.Len64(attempts)]++
		c.tally.AttemptsSum += attempts
	}
}

// tick ends one simulator step, flushing when the Tally holds
// flushEvery of them.
func (c *counter) tick() {
	if c.unflushed++; c.unflushed == flushEvery {
		c.flush()
	}
}

// flush derives the Tally's counters from the step states, merges the
// Tally into the Metrics and resets both.
func (c *counter) flush() {
	t := &c.tally
	for st, k := range c.states {
		o, flags := Outcome(st&7), uint8(st>>3)
		if flags&inOp == 0 {
			t.Begins += k
		} else if flags&retryNext != 0 {
			t.Retries += k
		}
		switch {
		case o&CASFailed != 0:
			t.CASFailures += k
		case o&CAS != 0:
			t.CASSuccesses += k
		}
		if o&Completed != 0 {
			t.Completions += k
		}
	}
	t.SchedSteps = c.unflushed * c.width
	c.m.Add(t)
	c.tally, c.states, c.unflushed = obs.Tally{}, [1 << 5]uint64{}, 0
}
