package sweep

import (
	"errors"
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/obs"
	"pwf/internal/scu"
)

// errNoBatchForm reports a job shape without a struct-of-arrays
// implementation; the caller falls back to scalar execution.
var errNoBatchForm = errors.New("sweep: no batched form for this job shape")

// batchFallbackReason explains why a point cannot run on the
// replica-batched path, or returns "" when it can: the workload has a
// struct-of-arrays form and nothing wants to observe individual steps
// or completions. A sweep-level recorder that is exactly an
// *obs.Metrics only counts, which the batched core does on its own
// fast path (machine.BatchSim.SetMetrics), so it does not force the
// scalar path; any other sweep recorder, a per-job recorder and a
// completion hook do. The reasons are surfaced through
// Config.OnBatchFallback so users learn when replica batching silently
// did nothing.
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
		if _, ok := cfg.Recorder.(*obs.Metrics); !ok {
			return "sweep has a recorder observing step-level events"
		}
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
		return scu.NewStackBatch(k, n, w.poolSize())
	case Queue:
		return scu.NewQueueBatch(k, n, w.poolSize())
	case RCU:
		return scu.NewRCUBatch(k, n, rcuReaders(n), w.poolSize())
	case LFUniversal:
		return scu.NewLFUniversalBatch(k, n)
	default:
		return nil, fmt.Errorf("%w: workload %q", errNoBatchForm, w.Kind)
	}
}
