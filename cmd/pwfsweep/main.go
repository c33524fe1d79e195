// Command pwfsweep is the simulator's command line: it runs a grid of
// seeded simulations (workload × scheduler × process count × seed
// replica) as one resumable, checkpointed run. Point i draws from
// (master seed, i) alone, so the output is byte-identical across
// worker counts and interruptions, and equal to pwfserve's stream.
//
// Usage:
//
//	pwfsweep -checkpoint grid.ckpt -out results.ndjson           # the paper grid
//	pwfsweep -checkpoint grid.ckpt -resume -out results.ndjson   # after a crash
//	pwfsweep -algos scu -scheds sticky:0.9 -n 16 -seeds 1 -text  # one simulation
//	pwfsweep -grid grid.json -trace run.pwft -metrics
//
// The grid comes from the axis flags, with -crash and -exact applied
// to every point, or from -grid: a file holding the JSON body a client
// POSTs to pwfserve, which can also set SCU(q, s), parallel(q), pool
// sizes and wait factors. Either way it is validated before any point
// runs. The default grid is the paper's: 10800 points of one million
// steps. -checkpoint logs every completed point under a header holding
// the grid (internal/checkpoint); -resume continues a log only if its
// grid matches. SIGINT checkpoints and exits with status 3.
//
// Output is one canonical api result line per point in input order,
// or with -text a latency/fairness report. -out is opened before any
// point runs; a regular file is written beside it and renamed into
// place only on success (see createOut). The observability flags
// (-trace, -metrics, -debug-addr, -cpuprofile, -memprofile) are
// described in the README.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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

const algoNames = "scu, fetchinc, parallel, unbounded, stack, queue, rcu, list, hashset, lfuniversal, wfuniversal"

// workloadByName maps each -algos name onto its kind's canonical
// parameters, and only the parameters that kind reads.
var workloadByName = map[string]pwf.Workload{
	"scu":         pwf.SCUWorkload(0, 1),
	"fetchinc":    pwf.FetchIncWorkload(),
	"parallel":    pwf.ParallelWorkload(1),
	"unbounded":   pwf.UnboundedWorkload(0),
	"stack":       pwf.StackWorkload(),
	"queue":       pwf.QueueWorkload(),
	"rcu":         pwf.RCUWorkload(),
	"list":        {Kind: "list"},
	"hashset":     {Kind: "hashset"},
	"lfuniversal": pwf.LFUniversalWorkload(),
	"wfuniversal": {Kind: "wfuniversal"},
}

// gridFlags are the flags a -grid file replaces.
var gridFlags = map[string]bool{"algos": true, "scheds": true, "n": true, "seeds": true,
	"steps": true, "warmup": true, "seed": true, "crash": true, "exact": true}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pwfsweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		gridPath   = fs.String("grid", "", "read the grid from this JSON file (a pwfserve submission body) instead of the axis flags")
		algos      = fs.String("algos", "scu,fetchinc,parallel,unbounded,stack,queue", "comma-separated workloads: "+algoNames)
		scheds     = fs.String("scheds", "uniform,sticky:0.5,lottery", "comma-separated schedulers: uniform, roundrobin, sticky:<rho>, lottery[:tickets], weighted[:weights], phased:<w,..>@<steps>/.., adversary:<victim>")
		ns         = fs.String("n", "2,4,8,16,32,64", "comma-separated process counts")
		steps      = fs.Uint64("steps", 1_000_000, "measurement window per point, in system steps")
		warmup     = fs.Float64("warmup", pwf.DefaultWarmupFraction, "warmup fraction of the measurement window, in [0, 1)")
		seeds      = fs.Int("seeds", 100, "seed replicas per grid point")
		seed       = fs.Uint64("seed", 1, "master rng seed (point i draws from stream (seed, i))")
		crash      = fs.Int("crash", 0, "processes to crash before every point starts")
		exact      = fs.Bool("exact", false, "also compute the exact-chain system latency where tractable")
		workers    = fs.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		width      = fs.Int("replica-batch", 16, "replica-batch width (1 = scalar execution)")
		ckptPath   = fs.String("checkpoint", "", "append completed points to this crash-safe checkpoint file")
		resume     = fs.Bool("resume", false, "continue an existing -checkpoint (its header must match this grid)")
		flushEvery = fs.Int("flush-every", checkpoint.DefaultFlushEvery, "fsync the checkpoint every this many points (-1 = every point)")
		outPath    = fs.String("out", "-", "write the results here when the run completes (- = stdout)")
		text       = fs.Bool("text", false, "write a latency/fairness report per point instead of NDJSON")
		progress   = fs.Bool("progress", true, "report done/total, rate, and ETA to stderr")
		traceFile  = fs.String("trace", "", "write step-level telemetry events to this file")
		traceComp  = fs.String("trace-compress", "none", "trace compression: none or gzip")
		metrics    = fs.Bool("metrics", false, "print a JSON metrics snapshot to stderr after the run")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}
	if *resume && *ckptPath == "" {
		return errors.New("-resume needs -checkpoint")
	}

	var grid api.Grid
	var err error
	if *gridPath != "" {
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			if gridFlags[f.Name] {
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return fmt.Errorf("-grid replaces %s; set it in the grid file", strings.Join(clash, ", "))
		}
		var f *os.File
		if f, err = os.Open(*gridPath); err != nil {
			return err
		}
		defer f.Close()
		grid, err = api.DecodeGrid(f)
	} else {
		grid, err = buildGrid(*algos, *scheds, *ns, *seeds, *seed,
			api.Job{Steps: *steps, WarmupFraction: *warmup, Crash: *crash, Exact: *exact})
	}
	if err != nil {
		return err
	}
	comp, err := pwf.ParseTraceCompression(*traceComp)
	if err != nil {
		return err
	}

	// Open -out before the first point runs, so a bad path fails at once.
	w := out
	var outFile *os.File
	partial := "" // the temporary file renamed onto -out, if there is one
	if *outPath != "-" {
		if outFile, partial, err = createOut(*outPath); err != nil {
			return err
		}
		defer outFile.Close()
		if partial != "" {
			defer os.Remove(partial) // fails harmlessly after the rename
		}
		w = outFile
	}

	// Assemble the telemetry pipeline: a binary trace file and an
	// aggregating metrics recorder, fanned out through MultiRecorder.
	// The debug server only reads the registry, so watching a sweep
	// leaves it on the path it runs on unwatched.
	var recorders []pwf.Recorder
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		trace, err := pwf.NewTraceWriter(f, comp)
		if err != nil {
			return err
		}
		recorders = append(recorders, trace)
	}
	if *debugAddr != "" {
		bound, stop, err := pwf.ServeDebug(*debugAddr, nil)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(errOut, "debug server listening on %s\n", bound)
	}
	if *metrics {
		recorders = append(recorders, pwf.NewMetricsRecorder(nil))
	}

	cfg := pwf.SweepConfig{
		Jobs:          grid.SweepJobs(),
		Seed:          grid.Seed,
		Workers:       *workers,
		BatchFamilies: true,
		ReplicaBatch:  *width,
		Recorder:      pwf.MultiRecorder(recorders...),
	}
	if *width > 1 {
		// Surface silent scalar fallbacks (once per distinct reason) so
		// a user who asked for replica batching learns when it did
		// nothing for part of the grid.
		cfg.OnBatchFallback = func(reason string) {
			fmt.Fprintf(errOut, "pwfsweep: replica batching fell back to scalar: %s\n", reason)
		}
	}
	total := len(cfg.Jobs)

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

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
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
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if *metrics {
		if err := pwf.DefaultRegistry().WriteJSON(errOut); err != nil {
			return err
		}
	}

	bw := bufio.NewWriter(w)
	for i, r := range results {
		if *text {
			if i > 0 {
				fmt.Fprintln(bw)
			}
			report(bw, r)
		} else if err := api.WriteResultLine(bw, api.ResultFromSweep(r)); err != nil {
			return err
		}
	}
	// The buffer keeps the first write error, the report's included.
	if err := bw.Flush(); err != nil {
		return err
	}
	if partial != "" {
		// Sync first, so the rename never publishes a file whose bytes a
		// crash could still lose.
		if err := errors.Join(outFile.Sync(), outFile.Close()); err != nil {
			return err
		}
		if err := os.Rename(partial, *outPath); err != nil {
			return err
		}
	} else if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(errOut, "pwfsweep: %d points done in %s (%d restored from checkpoint)\n",
		total, time.Since(began).Round(time.Millisecond), restored)
	return nil
}

// createOut opens -out for writing. A new or regular file is written
// as .<name>.partial beside it, which the caller renames onto path once
// every result is written: a failed run leaves path as it was, and what
// a killed run leaves is replaced by the next run. The temporary file
// takes an existing file's permissions. Anything else (a symlink, a
// device such as /dev/null, a FIFO) is written in place, with partial
// empty, since a rename would replace the link or the node itself.
func createOut(path string) (f *os.File, partial string, err error) {
	fi, err := os.Lstat(path)
	exists := err == nil
	if exists && !fi.Mode().IsRegular() {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
		return f, "", err
	}
	if !exists && !errors.Is(err, os.ErrNotExist) {
		return nil, "", err
	}
	partial = filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".partial")
	if err := os.Remove(partial); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, "", err
	}
	if f, err = os.OpenFile(partial, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666); err != nil {
		return nil, "", err
	}
	if exists {
		if err := f.Chmod(fi.Mode().Perm()); err != nil {
			f.Close()
			os.Remove(partial)
			return nil, "", err
		}
	}
	return f, partial, nil
}

// buildGrid expands the grid axes into one job per (algo, sched, n,
// seed replica), each a copy of base labeled for presentation. Seed
// replicas are explicit jobs, not Job.Replicas, so each carries its
// replica index in its label; the replica-batched core coalesces them
// anyway because they share a shape. The grid is validated as
// DecodeGrid validates a grid file.
func buildGrid(algos, scheds, ns string, seeds int, seed uint64, base api.Job) (api.Grid, error) {
	grid := api.Grid{V: api.Version, Seed: seed}
	schedNames := strings.Split(scheds, ",")
	specs := make([]pwf.SchedulerSpec, len(schedNames))
	for i, name := range schedNames {
		var err error
		schedNames[i] = strings.TrimSpace(name)
		if specs[i], err = pwf.ParseScheduler(schedNames[i]); err != nil {
			return grid, err
		}
	}
	var counts []int
	for _, s := range strings.Split(ns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return grid, fmt.Errorf("bad process count %q in -n %q", s, ns)
		}
		counts = append(counts, n)
	}
	for _, name := range strings.Split(algos, ",") {
		name = strings.TrimSpace(name)
		w, ok := workloadByName[name]
		if !ok {
			return grid, fmt.Errorf("unknown algorithm %q (have: %s)", name, algoNames)
		}
		for si, spec := range specs {
			for _, n := range counts {
				for k := 0; k < seeds; k++ {
					j := base
					j.Workload, j.N, j.Sched = w, n, spec
					j.Label = fmt.Sprintf("%s/%s/n%d/r%d", name, schedNames[si], n, k)
					grid.Jobs = append(grid.Jobs, j)
				}
			}
		}
	}
	return grid, grid.Validate()
}

// report writes one point's latency/fairness report for -text.
func report(out io.Writer, res pwf.SweepResult) {
	job, lat := res.Job, res.Latencies
	fmt.Fprintf(out, "algorithm=%s n=%d sched=%s steps=%d completions=%d\n",
		job.Workload.Kind, job.N, job.Sched, job.Steps, lat.Completions)
	fmt.Fprintf(out, "system latency (steps/op):      %.4f\n", lat.System)
	if res.ExactOK {
		fmt.Fprintf(out, "exact chain latency:            %.4f\n", res.Exact)
	}
	fmt.Fprintf(out, "mean individual latency:        %.4f\n", lat.Individual)
	if lat.System > 0 {
		fmt.Fprintf(out, "W_i / (n*W):                    %.4f\n",
			lat.Individual/(float64(job.N)*lat.System))
	}
	fmt.Fprintf(out, "completion rate (ops/step):     %.6f\n", lat.CompletionRate)
	fmt.Fprintf(out, "fairness index (Jain):          %.4f\n", lat.Fairness)
	if len(res.Starved) > 0 {
		fmt.Fprintf(out, "starved processes:              %v\n", res.Starved)
	}
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
