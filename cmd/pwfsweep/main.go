// Command pwfsweep runs the full paper grid — every workload ×
// scheduler × process count, times a seed-replica count — as one
// resumable, checkpointed run on the deterministic sweep engine. It is
// the single command behind the reproduction's million-job
// experiments: a multi-hour run killed at 99% resumes from its
// checkpoint and produces output byte-identical to an uninterrupted
// run, because every point draws its randomness from (master seed,
// point index) alone and the checkpoint's header holds the grid.
//
// Usage:
//
//	pwfsweep -checkpoint grid.ckpt -out results.ndjson
//	pwfsweep -checkpoint grid.ckpt -resume -out results.ndjson   # after a crash
//	pwfsweep -algos scu,fetchinc -scheds uniform -n 4,8 -seeds 10 -steps 100000
//
// The default grid is the paper reproduction's: algorithms
// scu,fetchinc,parallel,unbounded,stack,queue under schedulers
// uniform, sticky:0.5, lottery at n in {2,4,8,16,32,64}, 100 seed
// replicas each — 10800 points of one million steps. Flags scale any
// axis up or down; -seeds 1000 on a wider -n list is the million-job
// shape.
//
// Checkpointing: -checkpoint appends every completed point to an
// fsync-batched log headed by the expanded grid and master seed
// (format: internal/checkpoint). An existing checkpoint is only
// touched with -resume, and only if its header matches the requested
// grid exactly — a mismatched checkpoint is rejected loudly rather
// than mixing results across grids. SIGINT checkpoints and exits
// cleanly; SIGKILL at any byte leaves a loadable prefix. Progress
// (-progress, default on when stderr is being watched) reports
// done/total, rate, and an ETA computed from this session's rate,
// counting restored points as already done.
//
// Output: one canonical api result line per point (schema v1, no
// wall-clock fields), in input order, written to -out ("-" = stdout)
// once the run completes. The bytes are identical to what pwfserve
// streams and pwfsim -json emits for the same grid and seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pwf"
	"pwf/internal/api"
	"pwf/internal/checkpoint"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "pwfsweep:", err)
	if errors.Is(err, pwf.ErrSweepCanceled) {
		// Interrupted but checkpointed: distinct exit status so
		// wrappers can loop on resume.
		os.Exit(3)
	}
	os.Exit(1)
}

// defaultAlgos maps the -algos names onto their canonical paper
// parameterizations.
var workloadByName = map[string]pwf.Workload{
	"scu":         pwf.SCUWorkload(0, 1),
	"fetchinc":    pwf.FetchIncWorkload(),
	"parallel":    pwf.ParallelWorkload(1),
	"unbounded":   pwf.UnboundedWorkload(0),
	"stack":       pwf.StackWorkload(),
	"queue":       pwf.QueueWorkload(),
	"rcu":         pwf.RCUWorkload(),
	"lfuniversal": pwf.LFUniversalWorkload(),
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pwfsweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		algos      = fs.String("algos", "scu,fetchinc,parallel,unbounded,stack,queue", "comma-separated workloads: scu, fetchinc, parallel, unbounded, stack, queue, rcu, lfuniversal")
		scheds     = fs.String("scheds", "uniform,sticky:0.5,lottery", "comma-separated schedulers (pwfsim -sched grammar)")
		ns         = fs.String("n", "2,4,8,16,32,64", "comma-separated process counts")
		steps      = fs.Uint64("steps", 1_000_000, "measurement window per point, in system steps")
		warmup     = fs.Float64("warmup", 0.1, "warmup fraction of the measurement window, in [0, 1)")
		seeds      = fs.Int("seeds", 100, "seed replicas per grid point")
		seed       = fs.Uint64("seed", 1, "master rng seed (point i draws from stream (seed, i))")
		workers    = fs.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		width      = fs.Int("replica-batch", 16, "replica-batch width (1 = scalar execution)")
		ckptPath   = fs.String("checkpoint", "", "append completed points to this crash-safe checkpoint file")
		resume     = fs.Bool("resume", false, "continue an existing -checkpoint (its header must match this grid)")
		flushEvery = fs.Int("flush-every", checkpoint.DefaultFlushEvery, "fsync the checkpoint every this many points (-1 = every point)")
		outPath    = fs.String("out", "-", "write canonical NDJSON results here when the run completes (- = stdout)")
		progress   = fs.Bool("progress", true, "report done/total, rate, and ETA to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}
	if *resume && *ckptPath == "" {
		return errors.New("-resume needs -checkpoint")
	}

	jobs, err := buildJobs(*algos, *scheds, *ns, *steps, *warmup, *seeds)
	if err != nil {
		return err
	}
	cfg := pwf.SweepConfig{
		Jobs:          jobs,
		Seed:          *seed,
		Workers:       *workers,
		BatchFamilies: true,
		ReplicaBatch:  *width,
	}
	if *width > 1 {
		// Surface silent scalar fallbacks (once per distinct reason) so
		// a user who asked for replica batching learns when it did
		// nothing for part of the grid.
		cfg.OnBatchFallback = func(reason string) {
			fmt.Fprintf(errOut, "pwfsweep: replica batching fell back to scalar: %s\n", reason)
		}
	}
	total := len(jobs)

	restored := 0
	var cp *checkpoint.Log
	if *ckptPath != "" {
		if _, statErr := os.Stat(*ckptPath); statErr == nil && !*resume {
			return fmt.Errorf("checkpoint %s exists; pass -resume to continue it or remove it first", *ckptPath)
		}
		cp, err = checkpoint.Open(*ckptPath, cfg, checkpoint.Options{FlushEvery: *flushEvery})
		if err != nil {
			return err
		}
		defer cp.Close()
		cfg.Checkpoint = cp
		restored = cp.Restored()
		if restored > 0 {
			fmt.Fprintf(errOut, "pwfsweep: resuming %s: %d of %d points already complete\n",
				*ckptPath, restored, total)
		}
	}

	// SIGINT/SIGTERM cancel at the next dispatch boundary; completed
	// points are already in the checkpoint, so the run resumes where
	// it left off.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	if *progress {
		cfg.Progress = newProgressPrinter(errOut, restored).update
	}

	began := time.Now()
	results, err := pwf.RunSweep(cfg)
	if err != nil {
		if errors.Is(err, pwf.ErrSweepCanceled) && cp != nil {
			if serr := cp.Sync(); serr != nil {
				return serr
			}
			return fmt.Errorf("%w (checkpoint %s holds the completed points; rerun with -resume)",
				err, *ckptPath)
		}
		return err
	}

	w := out
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	for _, r := range results {
		if err := api.WriteResultLine(w, api.ResultFromSweep(r)); err != nil {
			return err
		}
	}
	fmt.Fprintf(errOut, "pwfsweep: %d points done in %s (%d restored from checkpoint)\n",
		total, time.Since(began).Round(time.Millisecond), restored)
	return nil
}

// buildJobs expands the grid axes into one job per (algo, sched, n,
// seed replica), labeled for presentation. Seed replicas are explicit
// jobs, not Job.Replicas, so each carries its replica index in its
// label; the replica-batched core coalesces them anyway because they
// share a shape.
func buildJobs(algos, scheds, ns string, steps uint64, warmup float64, seeds int) ([]pwf.SweepJob, error) {
	var workloads []pwf.Workload
	var algoNames []string
	for _, name := range strings.Split(algos, ",") {
		name = strings.TrimSpace(name)
		w, ok := workloadByName[name]
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q (have: scu, fetchinc, parallel, unbounded, stack, queue, rcu, lfuniversal)", name)
		}
		workloads = append(workloads, w)
		algoNames = append(algoNames, name)
	}
	var specs []pwf.SchedulerSpec
	var schedNames []string
	for _, name := range strings.Split(scheds, ",") {
		name = strings.TrimSpace(name)
		spec, err := pwf.ParseScheduler(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
		schedNames = append(schedNames, name)
	}
	var counts []int
	for _, s := range strings.Split(ns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad process count %q in -n", s)
		}
		counts = append(counts, n)
	}

	var jobs []pwf.SweepJob
	for ai, w := range workloads {
		for si, spec := range specs {
			for _, n := range counts {
				for k := 0; k < seeds; k++ {
					jobs = append(jobs, pwf.SweepJob{
						Workload:       w,
						N:              n,
						Sched:          spec,
						Steps:          steps,
						WarmupFraction: warmup,
						Label: fmt.Sprintf("%s/%s/n%d/r%d",
							algoNames[ai], schedNames[si], n, k),
					})
				}
			}
		}
	}
	return jobs, nil
}

// progressPrinter renders throttled progress lines with a rate and
// ETA computed from this session's completions only — restored points
// count as done but not toward the rate, so a resumed run's ETA is
// honest from its first line.
type progressPrinter struct {
	w        io.Writer
	started  time.Time
	restored int
	last     time.Time
}

func newProgressPrinter(w io.Writer, restored int) *progressPrinter {
	now := time.Now()
	return &progressPrinter{w: w, started: now, restored: restored}
}

func (p *progressPrinter) update(done, total int) {
	now := time.Now()
	if done < total && now.Sub(p.last) < 2*time.Second {
		return
	}
	p.last = now
	line := fmt.Sprintf("pwfsweep: %d/%d (%.1f%%)", done, total, 100*float64(done)/float64(total))
	if fresh := done - p.restored; fresh > 0 && done < total {
		rate := float64(fresh) / time.Since(p.started).Seconds()
		if rate > 0 {
			eta := time.Duration(float64(total-done)/rate) * time.Second
			line += fmt.Sprintf(", %.1f points/s, ETA %s", rate, eta.Round(time.Second))
		}
	}
	fmt.Fprintln(p.w, line)
}
