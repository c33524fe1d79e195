// Package pwf is the public API of the reproduction of Alistarh,
// Censor-Hillel and Shavit, "Are Lock-Free Concurrent Algorithms
// Practically Wait-Free?" (STOC 2014).
//
// The package exposes four layers:
//
//   - Simulation: measure a discrete-time shared-memory system — an
//     algorithm from the class SCU(q, s), a fetch-and-increment
//     counter, the unbounded Algorithm 1, a Treiber stack, a
//     Michael–Scott queue and more — under a stochastic scheduler,
//     with the paper's latency and fairness metrics. A Workload and a
//     SchedulerSpec describe the system declaratively; Run measures
//     one of them and RunSweep executes a whole grid of SweepJobs in
//     parallel with deterministic per-job seeding, optionally
//     checkpointed (see run.go).
//
//   - Telemetry: step-level event recorders, trace writers and
//     readers, and the metrics registry, set on a RunConfig or
//     SweepConfig (see obs.go).
//
//   - Exact analysis: the paper's Markov chains built exactly for
//     small n, with stationary distributions, latencies, and lifting
//     verification (Exact*, VerifySCULifting), memoized in a shared
//     cache so repeated requests are free.
//
//   - Native measurement: real goroutine/atomic counterparts with the
//     atomic-ticket schedule recorder of Appendix A and the
//     completion-rate harness of Appendix B (RecordSchedule,
//     MeasureCounterRate).
package pwf

import (
	"pwf/internal/markov"
	"pwf/internal/native"
	"pwf/internal/sweep"
)

// Re-exported result types. These aliases are the supported surface
// of the underlying packages; their methods are documented there.
type (
	// LiftingReport carries the numerical residuals of a lifting
	// verification.
	LiftingReport = markov.LiftingReport
	// NativeSchedule is a recovered real-scheduler interleaving.
	NativeSchedule = native.Schedule
	// RateResult is a native completion-rate measurement.
	RateResult = native.RateResult
)

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
