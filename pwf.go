// Package pwf is the public API of the reproduction of Alistarh,
// Censor-Hillel and Shavit, "Are Lock-Free Concurrent Algorithms
// Practically Wait-Free?" (STOC 2014).
//
// The package exposes three layers:
//
//   - Simulation: build a discrete-time shared-memory system — an
//     algorithm from the class SCU(q, s), a fetch-and-increment
//     counter, the unbounded Algorithm 1, a Treiber stack or a
//     Michael–Scott queue — under a stochastic scheduler, and measure
//     the paper's latency and fairness metrics. Run measures a single
//     declarative workload; RunSweep executes a whole parameter grid
//     in parallel with deterministic per-job seeding (see run.go).
//     NewSim remains the low-level composable path.
//
//   - Exact analysis: the paper's Markov chains built exactly for
//     small n, with stationary distributions, latencies, and lifting
//     verification (Exact*, VerifyLifting*), memoized in a shared
//     cache so repeated requests are free.
//
//   - Native measurement: real goroutine/atomic counterparts with the
//     atomic-ticket schedule recorder of Appendix A and the
//     completion-rate harness of Appendix B (RecordSchedule,
//     Measure*).
//
// The deeper substrates (custom schedulers, raw chains, the balls-
// into-bins game) live in the internal packages and are re-exported
// here as aliases where they are part of the supported API.
package pwf

import (
	"pwf/internal/machine"
	"pwf/internal/markov"
	"pwf/internal/native"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
	"pwf/internal/sweep"
)

// Re-exported core types. These aliases are the supported surface of
// the underlying packages; their methods are documented there.
type (
	// Sim is a discrete-time simulation of n processes under a
	// scheduler.
	Sim = machine.Sim
	// Process is one simulated algorithm instance; every Step is one
	// shared-memory operation.
	Process = machine.Process
	// Memory is the simulated array of atomic registers.
	Memory = shmem.Memory
	// Scheduler picks the process to step at each time unit
	// (Definition 1).
	Scheduler = sched.Scheduler
	// Chain is a finite Markov chain.
	Chain = markov.Chain
	// LiftingReport carries the numerical residuals of a lifting
	// verification.
	LiftingReport = markov.LiftingReport
	// NativeSchedule is a recovered real-scheduler interleaving.
	NativeSchedule = native.Schedule
	// RateResult is a native completion-rate measurement.
	RateResult = native.RateResult
)

// NewUniformScheduler returns the paper's uniform stochastic
// scheduler over n processes, seeded deterministically.
func NewUniformScheduler(n int, seed uint64) (*sched.Uniform, error) {
	return sched.NewUniform(n, rng.New(seed))
}

// NewStickyScheduler returns a Markov-modulated scheduler that
// reschedules the previous process with probability rho (still
// stochastic for rho < 1).
func NewStickyScheduler(n int, rho float64, seed uint64) (*sched.Sticky, error) {
	return sched.NewSticky(n, rho, rng.New(seed))
}

// NewRoundRobinScheduler returns the deterministic fair baseline.
func NewRoundRobinScheduler(n int) (*sched.RoundRobin, error) {
	return sched.NewRoundRobin(n)
}

// NewMemory allocates a simulated shared memory with the given number
// of registers. Needed explicitly for objects that require
// initialisation before the first step (Queue, WFUniversal).
func NewMemory(size int) (*Memory, error) { return shmem.New(size) }

// NewSim wires processes, a scheduler and a fresh memory of the given
// size into a simulation.
func NewSim(memSize int, procs []Process, s Scheduler) (*Sim, error) {
	mem, err := shmem.New(memSize)
	if err != nil {
		return nil, err
	}
	return machine.New(mem, procs, s)
}

// NewSimOn wires processes and a scheduler onto an existing memory —
// use with NewMemory when the object needs an Init call first.
func NewSimOn(mem *Memory, procs []Process, s Scheduler) (*Sim, error) {
	return machine.New(mem, procs, s)
}

// CounterSpec returns the fetch-and-add sequential specification.
func CounterSpec() SequentialObject { return scu.CounterObject{} }

// NewSCUProcesses builds n processes executing Algorithm 2 with
// parameters (q, s) on a fresh object at register 0; the memory must
// have at least SCUMemSize(s) registers.
func NewSCUProcesses(n, q, s int) ([]Process, error) {
	return scu.NewSCUGroup(n, q, s, 0)
}

// SCUMemSize returns the number of registers an SCU(q, s) object
// needs.
func SCUMemSize(s int) int { return scu.SCULayout(s) }

// NewUnboundedProcesses builds n processes executing Algorithm 1, the
// unbounded lock-free algorithm of Lemma 2. waitFactor 0 selects the
// paper's n². The memory needs UnboundedMemSize registers.
func NewUnboundedProcesses(n int, waitFactor int64) ([]Process, error) {
	return scu.NewUnboundedGroup(n, 0, waitFactor)
}

// UnboundedMemSize is the register footprint of Algorithm 1.
const UnboundedMemSize = scu.UnboundedLayout

// Latencies aggregates the measurements of one simulation run: the
// system latency W, the mean individual latency W_i, the completion
// rate, Jain's fairness index, and the completion count.
type Latencies = sweep.Latencies

// ExactSCUSystemLatency returns the exact system latency W of
// SCU(0, 1) with n processes, from the stationary distribution of the
// Section 6.1.1 system chain. Theorem 5 bounds it by O(√n). The chain
// is memoized process-wide: repeated calls for the same n are free.
func ExactSCUSystemLatency(n int) (float64, error) {
	sys, err := sweep.DefaultCache.SCUSystem(n)
	if err != nil {
		return 0, err
	}
	return sys.SystemLatency()
}

// ExactFetchIncLatency returns the exact system latency W of the
// fetch-and-increment counter with n processes (Lemma 12: W ≤ 2√n).
// The chain is memoized process-wide.
func ExactFetchIncLatency(n int) (float64, error) {
	glob, err := sweep.DefaultCache.FetchIncGlobal(n)
	if err != nil {
		return 0, err
	}
	return glob.SystemLatency()
}

// VerifySCULifting builds the individual and system chains of
// SCU(0, 1) for n processes (n ≤ 8) and verifies that the former
// lifts onto the latter (Lemma 5), returning the numerical report.
// Both chains come from the process-wide memoization cache.
func VerifySCULifting(n int) (*LiftingReport, error) {
	ind, lift, err := sweep.DefaultCache.SCUIndividual(n)
	if err != nil {
		return nil, err
	}
	sys, err := sweep.DefaultCache.SCUSystem(n)
	if err != nil {
		return nil, err
	}
	return markov.VerifyLifting(ind.Chain, sys.Chain, lift)
}

// NewReplayScheduler drives a simulation with a pre-recorded schedule
// trace — typically NativeSchedule.Order() — closing the loop between
// the model and the real machine. loop controls wrap-around.
func NewReplayScheduler(n int, trace []int32, loop bool) (*sched.Replay, error) {
	return sched.NewReplay(n, trace, loop)
}

// NewPhasedScheduler builds a time-varying stochastic scheduler that
// cycles through weighted phases (Definition 1 with Π depending on τ).
func NewPhasedScheduler(n int, phases []sched.Phase, seed uint64) (*sched.Phased, error) {
	return sched.NewPhased(n, phases, rng.New(seed))
}

// SchedulerPhase is one segment of a phased schedule.
type SchedulerPhase = sched.Phase

// SequentialObject is a deterministic sequential specification that
// the universal constructions make concurrent.
type SequentialObject = scu.Object

// NewLockFreeObject wraps obj in the lock-free (SCU) universal
// construction for n processes; the returned object occupies
// LockFreeObjectMemSize registers at register 0.
func NewLockFreeObject(obj SequentialObject, n int) (*scu.LFUniversal, error) {
	return scu.NewLFUniversal(obj, n, 0)
}

// LockFreeObjectMemSize is the register footprint of the lock-free
// universal construction.
const LockFreeObjectMemSize = scu.LFUniversalLayout

// NewWaitFreeObject wraps obj in the wait-free (announce + helping)
// universal construction for n processes with poolSize node slots per
// process. Call Init on the memory before simulating; the footprint
// is WaitFreeObjectMemSize(n, poolSize).
func NewWaitFreeObject(obj SequentialObject, n, poolSize int) (*scu.WFUniversal, error) {
	return scu.NewWFUniversal(obj, n, poolSize, 0)
}

// WaitFreeObjectMemSize is the register footprint of the wait-free
// universal construction.
func WaitFreeObjectMemSize(n, poolSize int) int {
	return scu.WFUniversalLayout(n, poolSize)
}

// RecordSchedule records a real-scheduler interleaving of the given
// number of worker goroutines using atomic ticketing (Appendix A.2).
func RecordSchedule(workers, opsPerWorker int) (*NativeSchedule, error) {
	return native.RecordSchedule(workers, opsPerWorker)
}

// MeasureCounterRate measures the native CAS-loop counter's
// completion rate (Figure 5) with the given workers.
func MeasureCounterRate(workers, opsPerWorker int) (RateResult, error) {
	return native.MeasureCASCounterRate(workers, opsPerWorker, nil)
}
