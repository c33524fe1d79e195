package pwf

import (
	"fmt"

	"pwf/internal/checkpoint"
	"pwf/internal/sweep"
)

// Workload is a declarative description of a simulated algorithm —
// the unit of the unified Run API and of sweep grids. Construct one
// with the *Workload helpers or as a literal.
type Workload = sweep.Workload

// WorkloadKind names an algorithm family.
type WorkloadKind = sweep.WorkloadKind

// SchedulerSpec is a declarative, reusable description of a scheduler:
// each run builds its own stateful instance from it for the run's n
// and seed.
type SchedulerSpec = sweep.SchedulerSpec

// SCUWorkload describes Algorithm 2 with parameters (q, s).
func SCUWorkload(q, s int) Workload {
	return Workload{Kind: sweep.SCU, Q: q, S: s}
}

// FetchIncWorkload describes the augmented-CAS fetch-and-increment
// counter (Algorithm 5).
func FetchIncWorkload() Workload { return Workload{Kind: sweep.FetchInc} }

// ParallelWorkload describes q-step parallel code (Algorithm 4).
func ParallelWorkload(q int) Workload {
	return Workload{Kind: sweep.Parallel, Q: q}
}

// UnboundedWorkload describes Algorithm 1; waitFactor 0 selects the
// paper's n².
func UnboundedWorkload(waitFactor int64) Workload {
	return Workload{Kind: sweep.Unbounded, WaitFactor: waitFactor}
}

// StackWorkload describes the simulated Treiber stack.
func StackWorkload() Workload { return Workload{Kind: sweep.Stack} }

// QueueWorkload describes the simulated Michael–Scott queue.
func QueueWorkload() Workload { return Workload{Kind: sweep.Queue} }

// RCUWorkload describes the read-mostly RCU-style workload (~3/4
// readers, CAS-published snapshots).
func RCUWorkload() Workload { return Workload{Kind: sweep.RCU} }

// LFUniversalWorkload describes the lock-free universal construction
// applied to a counter object.
func LFUniversalWorkload() Workload { return Workload{Kind: sweep.LFUniversal} }

// UniformSpec describes the paper's uniform stochastic scheduler.
func UniformSpec() SchedulerSpec { return SchedulerSpec{Kind: sweep.SchedUniform} }

// StickySpec describes the Markov-modulated scheduler with stickiness
// rho in [0, 1).
func StickySpec(rho float64) SchedulerSpec {
	return SchedulerSpec{Kind: sweep.SchedSticky, Rho: rho}
}

// RoundRobinSpec describes the deterministic fair baseline.
func RoundRobinSpec() SchedulerSpec {
	return SchedulerSpec{Kind: sweep.SchedRoundRobin}
}

// LotterySpec describes ticket-based lottery scheduling; nil tickets
// give every process one ticket.
func LotterySpec(tickets []int) SchedulerSpec {
	return SchedulerSpec{Kind: sweep.SchedLottery, Tickets: tickets}
}

// ParseScheduler parses the CLI scheduler syntax — uniform,
// roundrobin, lottery, sticky:<rho>, adversary:<victim> — into a
// SchedulerSpec.
func ParseScheduler(name string) (SchedulerSpec, error) {
	return sweep.ParseScheduler(name)
}

// RunConfig is the input of Run: a workload, a process count, and
// measurement settings. NewRunConfig fills in the defaults; set fields
// to override them.
type RunConfig struct {
	// Workload is the simulated algorithm.
	Workload Workload
	// N is the number of processes.
	N int
	// Steps is the measurement window in system steps.
	Steps uint64
	// WarmupFraction is the warmup before the measurement window as a
	// fraction of Steps; it must lie in [0, 1).
	WarmupFraction float64
	// Seed drives all simulation randomness.
	Seed uint64
	// Scheduler selects the scheduler model.
	Scheduler SchedulerSpec
	// Recorder, when non-nil, receives the run's step-level telemetry
	// events (package obs semantics): for example the binary trace
	// writer from NewTraceWriter, NewMetricsRecorder, or several of
	// them through MultiRecorder.
	Recorder Recorder
	// Cache memoizes exact-chain constructions; nil selects the
	// process-wide default cache.
	Cache *ChainCache
}

// Default measurement settings of NewRunConfig.
const (
	DefaultSteps = 1_000_000
	// DefaultWarmupFraction is the conventional 10% warmup the
	// deprecated Simulate* functions always used.
	DefaultWarmupFraction = sweep.DefaultWarmupFraction
	DefaultSeed           = 1
)

// ErrSweepCanceled marks a sweep stopped by SweepConfig.Context
// before every point completed. RunSweep returns it wrapping the
// context's own error alongside the partial results; match with
// errors.Is to distinguish cancellation (partial results, non-nil
// error) from job failure (nil results, non-nil error).
var ErrSweepCanceled = sweep.ErrCanceled

// Checkpoint is the resume state a sweep consults before dispatch and
// records completed points through; see SweepConfig.Checkpoint.
// CheckpointLog is the crash-safe file-backed implementation.
type Checkpoint = sweep.Checkpoint

// CheckpointLog is a file-backed Checkpoint: an append-only,
// fsync-batched log of completed points in the canonical wire
// encoding, under a header holding the grid and master seed it binds. A
// SIGKILL at any byte leaves a loadable prefix; reopening restores
// every completed point and a resumed sweep's canonical results are
// byte-identical to an uninterrupted run. Close it after RunSweep
// returns.
type CheckpointLog = checkpoint.Log

// ErrCheckpointMismatch marks an existing checkpoint file that was
// written for a different grid or master seed than the sweep being
// resumed; OpenCheckpoint refuses it rather than mixing results
// across grids. Match with errors.Is.
var ErrCheckpointMismatch = checkpoint.ErrGridMismatch

// OpenCheckpoint creates (or, when the file exists, loads and
// validates) the checkpoint for cfg's grid at path. The grid identity
// — expanded points plus master seed — must match an existing file
// exactly (ErrCheckpointMismatch otherwise). A config RunSweep would
// refuse is refused here too, before any file is created. Pass the
// result through SweepConfig.Checkpoint:
//
//	cp, err := pwf.OpenCheckpoint("grid.ckpt", cfg)
//	...
//	cfg.Checkpoint = cp
//	results, err := pwf.RunSweep(cfg)
//	cp.Close()
func OpenCheckpoint(path string, cfg SweepConfig) (*CheckpointLog, error) {
	return checkpoint.Open(path, cfg, checkpoint.Options{})
}

// NewRunConfig returns the configuration for measuring workload w with
// n processes under the defaults: uniform scheduler, DefaultSteps
// steps, DefaultWarmupFraction warmup, DefaultSeed seed. Set fields on
// the result to override them.
func NewRunConfig(w Workload, n int) RunConfig {
	return RunConfig{
		Workload:       w,
		N:              n,
		Steps:          DefaultSteps,
		WarmupFraction: DefaultWarmupFraction,
		Seed:           DefaultSeed,
		Scheduler:      UniformSpec(),
	}
}

// Run measures one workload under one scheduler — the unified entry
// point replacing the Simulate* constellation:
//
//	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 16)
//	cfg.Steps, cfg.Seed = 2_000_000, 7
//	lat, err := pwf.Run(cfg)
//
// It validates cfg (in particular WarmupFraction must lie in [0, 1))
// and runs warmup + measurement, returning the latency and fairness
// metrics. A recorder with a Flush method, such as a trace writer, is
// flushed before Run returns.
func Run(cfg RunConfig) (Latencies, error) {
	res, err := sweep.RunJob(sweep.Job{
		Workload:       cfg.Workload,
		N:              cfg.N,
		Sched:          cfg.Scheduler,
		Steps:          cfg.Steps,
		WarmupFraction: cfg.WarmupFraction,
		Recorder:       cfg.Recorder,
	}, cfg.Seed, cfg.Cache)
	if err = flushRecorder(cfg.Recorder, err); err != nil {
		return Latencies{}, fmt.Errorf("pwf: run: %w", err)
	}
	return res.Latencies, nil
}

// flushRecorder flushes r when it buffers (trace writers do) and
// returns err, or the flush error when err is nil.
func flushRecorder(r Recorder, err error) error {
	if f, ok := r.(interface{ Flush() error }); ok {
		if ferr := f.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// SweepJob is one point of a sweep grid.
type SweepJob = sweep.Job

// SweepResult is the structured outcome of one sweep job.
type SweepResult = sweep.Result

// SweepConfig describes a sweep: a job grid, a master seed, and
// optional worker-pool bound, chain cache, family and replica
// batching, progress and per-result callbacks, cancellation context,
// checkpoint, and recorder.
type SweepConfig = sweep.Config

// RunSweep executes a grid of independent jobs on a worker pool sized
// to GOMAXPROCS (or SweepConfig.Workers) and returns one result per
// job, in input order. Results are byte-identical for a given master
// seed regardless of worker count: job i draws its randomness from a
// SplitMix-derived stream (master, i). Exact-chain analyses requested
// via SweepJob.Exact are memoized in a cache shared across the sweep
// (and, by default, the process). Like Run, it flushes a recorder
// that has a Flush method before returning.
//
//	jobs := []pwf.SweepJob{
//	        {Workload: pwf.SCUWorkload(0, 1), N: 16, Steps: 1_000_000, Exact: true},
//	        {Workload: pwf.FetchIncWorkload(), N: 16, Steps: 1_000_000},
//	}
//	results, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 1})
func RunSweep(cfg SweepConfig) ([]SweepResult, error) {
	res, err := sweep.Run(cfg)
	return res, flushRecorder(cfg.Recorder, err)
}
