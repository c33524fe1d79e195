package sweep

import (
	"errors"
	"fmt"
	"time"

	"pwf/internal/machine"
	"pwf/internal/sched"
	"pwf/internal/scu"
)

// errNoBatchForm reports a job shape without a struct-of-arrays
// implementation; the caller falls back to scalar execution.
var errNoBatchForm = errors.New("sweep: no batched form for this job shape")

// batchable reports whether a point can run on the replica-batched
// path: the workload has a struct-of-arrays form and nothing wants to
// observe individual steps or completions.
func batchable(cfg Config, job Job) bool {
	return batchFallbackReason(cfg, job) == ""
}

// batchFallbackReason explains why a point cannot run on the
// replica-batched path, or returns "" when it can. The reasons are
// surfaced through Config.OnBatchFallback so users learn when replica
// batching silently did nothing.
func batchFallbackReason(cfg Config, job Job) string {
	switch job.Workload.Kind {
	case SCU, Parallel, FetchInc, Unbounded, Stack, Queue, RCU, LFUniversal:
	default:
		return fmt.Sprintf("workload %q has no batched form", job.Workload.Kind)
	}
	switch {
	case job.CompletionHook != nil:
		return "job has a per-job completion hook"
	case job.Recorder != nil:
		return "job has a per-job recorder"
	case cfg.Recorder != nil:
		return "sweep has a recorder observing step-level telemetry"
	}
	return ""
}

// buildBatchGroup constructs the struct-of-arrays process group for k
// replicas of the workload, mirroring Workload.build for the kinds
// that have batched forms.
func buildBatchGroup(w Workload, k, n int) (machine.BatchGroup, error) {
	switch w.Kind {
	case SCU:
		return scu.NewSCUBatch(k, n, w.Q, w.S)
	case Parallel:
		return scu.NewParallelBatch(k, n, w.Q)
	case FetchInc:
		return scu.NewFetchIncBatch(k, n)
	case Unbounded:
		return scu.NewUnboundedBatch(k, n, w.WaitFactor)
	case Stack:
		return scu.NewStackBatch(k, n, w.pool(64))
	case Queue:
		return scu.NewQueueBatch(k, n, w.pool(64))
	case RCU:
		readers := n - 1 - (n-1)/4 // read-mostly: ~3/4 readers, as Workload.build
		return scu.NewRCUBatch(k, n, readers, w.pool(64))
	case LFUniversal:
		return scu.NewLFUniversalBatch(scu.CounterObject{}, k, n,
			func(pid int, seq int64) int64 { return 1 })
	default:
		return nil, fmt.Errorf("%w: workload %q", errNoBatchForm, w.Kind)
	}
}

// runJobBatch executes len(seeds) same-shape points (jobs[r] differs
// from jobs[0] at most in Label) in one lockstep BatchSim. It returns
// one Result and one error slot per replica; the third return value
// is a batch-level construction failure, after which nothing ran and
// the caller should fall back to per-point scalar execution.
//
// Replica r evolves exactly as RunJob(jobs[r], seeds[r], cache): the
// scheduler draws replica r's stream through the same sampling
// structures, the workload transitions through the same states, and
// the metric accumulators update in the same order — so each Result
// is byte-identical to the scalar path's, except Elapsed (wall time,
// never deterministic), which reports the per-replica share of the
// batch.
func runJobBatch(jobs []Job, seeds []uint64, cache *ChainCache) ([]Result, []error, error) {
	if len(jobs) == 0 || len(jobs) != len(seeds) {
		return nil, nil, fmt.Errorf("sweep: batch of %d jobs with %d seeds", len(jobs), len(seeds))
	}
	job := jobs[0]
	if err := job.Validate(); err != nil {
		return nil, nil, err
	}
	if cache == nil {
		cache = DefaultCache
	}
	k := len(seeds)
	began := time.Now()

	drawer, err := job.Sched.build(job.N, seeds)
	if err != nil {
		return nil, nil, err
	}
	if job.Crash > 0 {
		crasher, ok := drawer.(sched.Crasher)
		if !ok {
			return nil, nil, fmt.Errorf("%w: scheduler %q does not support crashes", errNoBatchForm, job.Sched)
		}
		for pid := job.N - job.Crash; pid < job.N; pid++ {
			if err := crasher.Crash(pid); err != nil {
				return nil, nil, fmt.Errorf("sweep: crash process %d: %w", pid, err)
			}
		}
	}
	group, err := buildBatchGroup(job.Workload, k, job.N)
	if err != nil {
		return nil, nil, err
	}
	sim, err := machine.NewBatchSim(group, drawer)
	if err != nil {
		return nil, nil, err
	}

	if warmup := uint64(job.WarmupFraction * float64(job.Steps)); warmup > 0 {
		if err := sim.Run(warmup); err != nil {
			return nil, nil, err
		}
	}
	sim.ResetMetrics()
	if err := sim.Run(job.Steps); err != nil {
		return nil, nil, err
	}

	var exact float64
	exactOK := false
	if job.Exact {
		exact, exactOK = exactLatency(job, cache)
	}
	chk, _ := group.(machine.BatchChecker)
	share := time.Since(began) / time.Duration(k)
	results := make([]Result, k)
	perr := make([]error, k)
	for r := 0; r < k; r++ {
		res := Result{
			Label: jobs[r].Label,
			Job:   jobs[r],
			Seed:  seeds[r],
			Theta: drawer.Threshold(),
		}
		var lat Latencies
		if lat.System, err = sim.SystemLatency(r); err != nil {
			perr[r] = err
			continue
		}
		if lat.Individual, err = sim.MeanIndividualLatency(r); err != nil {
			perr[r] = err
			continue
		}
		lat.CompletionRate = sim.CompletionRate(r)
		lat.Fairness = sim.FairnessIndex(r)
		lat.Completions = sim.TotalCompletions(r)
		res.Latencies = lat
		res.ProcCompletions = sim.Completions(r)
		res.Starved = sim.StarvedProcesses(r)
		if chk != nil {
			// Post-run invariant check, mirroring RunJob's built.check
			// call at the same position: a failing replica yields a
			// zero Result and the check error.
			if cerr := chk.CheckReplica(r); cerr != nil {
				perr[r] = cerr
				continue
			}
		}
		if job.Exact {
			res.Exact, res.ExactOK = exact, exactOK
		}
		res.Elapsed = share
		results[r] = res
	}
	return results, perr, nil
}
