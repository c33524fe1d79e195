// Command pwfsim runs discrete-time simulations of a lock-free
// algorithm under a chosen scheduler and reports latencies, the
// completion rate, and fairness. With a comma-separated -n list it
// becomes a sweep: all points run in parallel on the pwf sweep engine
// with deterministic per-job seeding, so results do not depend on the
// worker count.
//
// Usage:
//
//	pwfsim -algo scu -n 16 -q 0 -s 1 -steps 1000000 -sched uniform
//	pwfsim -algo fetchinc -n 1,2,4,8,16 -exact -json
//	pwfsim -algo scu -n 4 -steps 100000 -trace run.pwft -metrics
//	pwfsim -algo scu -n 4 -trace run.pwft -trace-compress gzip
//
// Algorithms: scu (Algorithm 2), parallel (Algorithm 4),
// fetchinc (Algorithm 5), unbounded (Algorithm 1), stack, queue,
// rcu, list, hashset, lfuniversal, wfuniversal.
// Schedulers: uniform, roundrobin, sticky:<rho>,
// lottery[:t1,t2,...], weighted[:w1,w2,...],
// phased:<w,...>@<steps>/<w,...>@<steps>..., adversary:<victim>.
//
// With -json, each job emits one canonical internal/api result line
// (schema v1, no wall-clock fields): byte-identical to what pwfserve
// streams for the same grid and seed, and parseable by api.ReadResults.
//
// Observability flags: -trace writes every step-level event
// (scheduling decision, CAS outcome, retry, operation boundary,
// crash, job lifecycle) to a file in the compact binary trace format
// v2 (read it back with pwf.ReadTraceEvents), and -trace-compress adds
// per-frame gzip; -metrics counts the same quantities into wait-free
// counters and histograms — on the simulator's fast path alone, from
// the events when a trace or tail also records — and prints a JSON
// snapshot, including the chain-cache hit/miss gauges, to stderr;
// -debug-addr serves /metrics, /debug/vars, /debug/pprof, and a live
// /debug/trace/tail (NDJSON with cursor resume) over HTTP;
// -cpuprofile/-memprofile write pprof profiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pwf"
	"pwf/internal/api"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pwfsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pwfsim", flag.ContinueOnError)
	var (
		algo      = fs.String("algo", "scu", "algorithm: scu, parallel, fetchinc, unbounded, stack, queue, rcu, list, hashset, lfuniversal, wfuniversal")
		ns        = fs.String("n", "8", "number of processes; a comma-separated list sweeps all of them")
		q         = fs.Int("q", 0, "preamble length (scu/parallel)")
		s         = fs.Int("s", 1, "scan length (scu)")
		steps     = fs.Uint64("steps", 1000000, "system steps to simulate")
		warmup    = fs.Float64("warmup", pwf.DefaultWarmupFraction, "warmup fraction of the measurement window, in [0, 1)")
		schedName = fs.String("sched", "uniform", "scheduler: uniform, roundrobin, sticky:<rho>, lottery[:tickets], weighted[:weights], phased:<w,..>@<steps>/.., adversary:<victim>")
		seed      = fs.Uint64("seed", 1, "master rng seed (per-job seeds are derived deterministically)")
		crash     = fs.Int("crash", 0, "number of processes to crash before starting")
		exact     = fs.Bool("exact", false, "also compute the exact-chain system latency where tractable")
		asJSON    = fs.Bool("json", false, "emit one canonical api result line (NDJSON, schema v1) per job instead of the text report")
		workers   = fs.Int("workers", 0, "sweep worker pool size (default GOMAXPROCS)")
		traceFile = fs.String("trace", "", "write step-level telemetry events to this file")
		traceComp = fs.String("trace-compress", "none", "trace compression: none or gzip")
		metrics   = fs.Bool("metrics", false, "print a JSON metrics snapshot to stderr after the run")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/trace/tail on this address")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	counts, err := parseNs(*ns)
	if err != nil {
		return err
	}
	if *steps < 1 {
		return fmt.Errorf("-steps must be at least 1, got %d", *steps)
	}
	if *q < 0 {
		return fmt.Errorf("-q must be non-negative, got %d", *q)
	}
	if *s < 1 {
		return fmt.Errorf("-s must be at least 1, got %d", *s)
	}
	if *crash < 0 {
		return fmt.Errorf("-crash must be non-negative, got %d", *crash)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}
	spec, err := pwf.ParseScheduler(*schedName)
	if err != nil {
		return err
	}
	comp, err := pwf.ParseTraceCompression(*traceComp)
	if err != nil {
		return err
	}

	// Assemble the telemetry pipeline: a binary trace file, a live
	// tail ring behind the debug server, an aggregating metrics
	// recorder — all fanned out through MultiRecorder.
	var recorders []pwf.Recorder
	var trace *pwf.TraceWriter
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		trace, err = pwf.NewTraceWriter(f, comp)
		if err != nil {
			return err
		}
		recorders = append(recorders, trace)
	}
	if *debugAddr != "" {
		tail := pwf.NewTraceTailer(0, nil)
		defer tail.Close()
		recorders = append(recorders, tail)
		bound, stop, err := pwf.ServeDebug(*debugAddr, nil, pwf.WithTraceTail(tail))
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(errOut, "debug server listening on %s\n", bound)
	}
	if *metrics {
		recorders = append(recorders, pwf.NewMetricsRecorder(nil))
	}

	jobs := make([]pwf.SweepJob, len(counts))
	for i, n := range counts {
		jobs[i] = pwf.SweepJob{
			Workload:       pwf.Workload{Kind: pwf.WorkloadKind(*algo), Q: *q, S: *s},
			N:              n,
			Sched:          spec,
			Steps:          *steps,
			WarmupFraction: *warmup,
			Crash:          *crash,
			Exact:          *exact,
		}
	}
	var results []pwf.SweepResult
	err = withProfiles(*cpuProf, *memProf, func() error {
		var err error
		results, err = pwf.RunSweep(pwf.SweepConfig{
			Jobs:     jobs,
			Seed:     *seed,
			Workers:  *workers,
			Recorder: pwf.MultiRecorder(recorders...),
		})
		return err
	})
	if trace != nil {
		if ferr := trace.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	if *metrics {
		if err := pwf.DefaultRegistry().WriteJSON(errOut); err != nil {
			return err
		}
	}

	if *asJSON {
		// Canonical api lines, not a bare struct dump: the same bytes
		// pwfserve streams for this grid and seed, so CLI output and
		// server output diff clean against each other.
		for _, res := range results {
			if err := api.WriteResultLine(out, api.ResultFromSweep(res)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(out)
		}
		report(out, res)
	}
	return nil
}

// withProfiles brackets f with optional CPU and heap profiling.
func withProfiles(cpu, mem string, f func() error) error {
	if cpu != "" {
		cf, err := os.Create(cpu)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil {
		return err
	}
	if mem != "" {
		mf, err := os.Create(mem)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(mf)
	}
	return nil
}

// parseNs parses the -n flag: one process count or a comma-separated
// sweep list. Every count must be a positive integer — a zero or
// negative process count can only be a typo, so it fails fast here
// rather than deep inside the sweep engine.
func parseNs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parse -n %q: %w", s, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("parse -n %q: process count %d must be at least 1", s, n)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

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
