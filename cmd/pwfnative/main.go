// Command pwfnative runs the real-hardware experiments of the paper's
// appendix on this machine: schedule recording via atomic ticketing
// (Figures 3 and 4) and the completion-rate sweep (Figure 5).
//
// Usage:
//
//	pwfnative -mode schedule -workers 8 -ops 200000 [-trace out.pwft]
//	pwfnative -mode rate -maxworkers 32 -ops 100000 [-algo counter|add|stack|queue] [-metrics]
//
// Observability flags: -trace writes the recovered hardware
// interleaving as sched events in the binary trace format v2
// (schedule mode only), and -trace-compress adds per-frame gzip;
// -metrics prints a JSON metrics snapshot to stderr, including the
// wait-free retry/step histograms the rate workloads record, one set
// per worker count n under the prefix native_<algo>_w<n>;
// -debug-addr serves /metrics, /debug/vars and /debug/pprof over HTTP
// for the duration of the run; -cpuprofile/-memprofile write pprof
// profiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"pwf/internal/native"
	"pwf/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pwfnative:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pwfnative", flag.ContinueOnError)
	var (
		mode       = fs.String("mode", "schedule", "experiment: schedule, rate")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "workers for -mode schedule")
		maxWorkers = fs.Int("maxworkers", 2*runtime.GOMAXPROCS(0), "largest worker count for -mode rate")
		ops        = fs.Int("ops", 200000, "operations per worker")
		algo       = fs.String("algo", "counter", "workload for -mode rate: counter, add, stack, queue")
		traceFile  = fs.String("trace", "", "write the recovered schedule as trace events (schedule mode)")
		traceComp  = fs.String("trace-compress", "none", "trace compression: none or gzip")
		metrics    = fs.Bool("metrics", false, "print a JSON metrics snapshot to stderr after the run")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile != "" && *mode != "schedule" {
		return fmt.Errorf("-trace applies only to -mode schedule")
	}
	comp, err := obs.ParseCompression(*traceComp)
	if err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if *maxWorkers < 1 {
		return fmt.Errorf("-maxworkers must be at least 1, got %d", *maxWorkers)
	}
	if *ops < 1 {
		return fmt.Errorf("-ops must be at least 1, got %d", *ops)
	}

	if *debugAddr != "" {
		bound, stop, err := obs.ServeDebug(*debugAddr, obs.Default)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(errOut, "debug server listening on %s\n", bound)
	}

	err = withProfiles(*cpuProfile, *memProfile, func() error {
		switch *mode {
		case "schedule":
			return runSchedule(out, *workers, *ops, *traceFile, comp)
		case "rate":
			return runRate(out, *maxWorkers, *ops, *algo, *metrics)
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}
	})
	if err != nil {
		return err
	}
	if *metrics {
		return obs.Default.WriteJSON(errOut)
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

func runSchedule(out io.Writer, workers, ops int, traceFile string, comp obs.Compression) error {
	s, err := native.RecordSchedule(workers, ops)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d steps by %d workers (GOMAXPROCS=%d)\n\n",
		s.Len(), workers, runtime.GOMAXPROCS(0))

	if traceFile != "" {
		if err := writeScheduleTrace(traceFile, s, comp); err != nil {
			return err
		}
	}

	fmt.Fprintln(out, "Figure 3: per-worker step shares (ideal = 1/n)")
	ideal := 1 / float64(workers)
	for w, share := range s.StepShares() {
		fmt.Fprintf(out, "  worker %2d: %.4f  (ideal %.4f, deviation %+.4f)\n",
			w, share, ideal, share-ideal)
	}

	fmt.Fprintln(out, "\nFigure 4: P(next step by w_j | current step by w_0)")
	dist, err := s.NextStepDistribution(0)
	if err != nil {
		return err
	}
	for j, p := range dist {
		fmt.Fprintf(out, "  next = %2d: %.4f\n", j, p)
	}
	return nil
}

// writeScheduleTrace dumps the recovered hardware interleaving as
// sched events (1-based steps, matching the simulator's numbering) in
// the binary trace format so it can be replayed through the
// simulator's trace-driven scheduler. Hardware schedules are a
// natural fit for delta coding: consecutive steps differ by one, so
// each event costs about two bytes before compression.
func writeScheduleTrace(path string, s *native.Schedule, comp obs.Compression) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := obs.NewBinaryTraceWriter(f, obs.BinaryTraceOptions{Compression: comp})
	for i, w := range s.Order() {
		tr.Record(obs.Event{Kind: obs.KindSched, Step: uint64(i) + 1, PID: int(w)})
	}
	if err := tr.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runRate(out io.Writer, maxWorkers, ops int, algo string, metrics bool) error {
	measure, err := rateFunc(algo)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 5: completion rate of %s vs worker count\n", algo)
	fmt.Fprintf(out, "%8s %12s %14s %14s %12s\n",
		"workers", "rate", "c/sqrt(n)", "worst c'/n", "elapsed")

	var c, cWorst float64
	for n := 1; n <= maxWorkers; n *= 2 {
		var stats *obs.OpStats
		if metrics {
			stats = &obs.OpStats{}
			stats.Register(obs.Default, fmt.Sprintf("native_%s_w%d", algo, n))
		}
		res, err := measure(n, ops, stats)
		if err != nil {
			return err
		}
		if n == 1 {
			c = res.Rate()
			cWorst = res.Rate()
		}
		fmt.Fprintf(out, "%8d %12.6f %14.6f %14.6f %12v\n",
			n, res.Rate(), c/math.Sqrt(float64(n)), cWorst/float64(n),
			res.Elapsed.Round(1000))
	}
	return nil
}

func rateFunc(algo string) (func(workers, ops int, st *obs.OpStats) (native.RateResult, error), error) {
	switch algo {
	case "counter":
		return native.MeasureCASCounterRate, nil
	case "add":
		return native.MeasureAddCounterRate, nil
	case "stack":
		return native.MeasureStackRate, nil
	case "queue":
		return native.MeasureQueueRate, nil
	}
	return nil, fmt.Errorf("unknown workload %q", algo)
}
