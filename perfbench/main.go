// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every output against pinned
// digests and the checkpoint log, and prints one JSON report as its
// last line of standard output.
//
//	perfbench --workload grid-batched --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the report holds the end-to-end metrics of the timed
// rounds; with --trace 1 a separate traced run reports the per-layer
// metrics. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// processStart is taken during package initialization, as close to
// process start as Go code can observe; round 0's set-up is timed
// from here.
var processStart = time.Now()

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every round of one run shares.
type env struct {
	seed    uint64
	tmp     string // scratch directory inside the working directory
	stderr  io.Writer
	digests map[string]string // first digest seen per output, for unpinned seeds
}

// tally counts operations attempted and failed across rounds.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// workload is one benchmark workload. A round is set up afresh, timed
// and checked; its timed part is one or more units of fixed work.
type workload interface {
	// round sets up and runs one round. With tr non-nil it records the
	// round's spans and layer data into tr.
	round(e *env, r int, tr *trace) (roundStats, error)
	// layers runs the untimed replays that attribute a traced round's
	// time to layers and adds their metrics.
	layers(e *env, tr *trace) error
	// setupTime sets up round r alone, tears it down, and returns how
	// long the set-up took.
	setupTime(e *env, r int) (time.Duration, error)
}

// minSetups is how many set-ups a timed run measures at least: the
// rounds' own, then set-ups alone until there are this many.
const minSetups = 21

// roundStats is what one round measured.
type roundStats struct {
	setup  time.Duration   // set-up before the timed part
	wall   time.Duration   // the timed part
	units  []time.Duration // the timed part, split into its units of fixed work
	sweeps []time.Duration // submit-to-last-line latency of each sweep
	steps  uint64          // simulated steps per unit, warmup plus window
	ops    tally
}

func workloads() map[string]workload {
	return map[string]workload{
		"grid-batched":  newBatchedWorkload(),
		"grid-observed": newObservedWorkload(),
		"serve-loop":    &serveWorkload{sweeps: serveSweeps, pinned: pinnedDigests["serve-loop"]},
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "grid-batched, grid-observed or serve-loop")
		seed    = fs.Uint64("seed", 1, "workload seed; every grid is built from it")
		seconds = fs.Int("seconds", 30, "how long the timed rounds run")
		traced  = fs.Int("trace", 0, "1 = the traced run reporting per-layer metrics")
		tmpRoot = fs.String("tmp", ".bench_build", "directory for checkpoint logs and outputs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	w, ok := workloads()[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, tmp: tmp, stderr: stderr, digests: map[string]string{}}

	var rep report
	if *traced == 1 {
		rep, err = tracedRun(e, w)
	} else {
		rep, err = timedRun(e, w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// timedRun repeats rounds until the time is spent and reports medians.
func timedRun(e *env, w workload, d time.Duration) (report, error) {
	var (
		ops                 tally
		setups, walls, lats []float64
		steps               uint64 // per unit; every unit does the same work
	)
	began := time.Now()
	for r := 0; r == 0 || time.Since(began) < d; r++ {
		rs, err := w.round(e, r, nil)
		if err != nil {
			return report{}, err
		}
		ops.add(rs.ops)
		setups = append(setups, rs.setup.Seconds())
		for _, u := range rs.units {
			walls = append(walls, u.Seconds())
		}
		for _, l := range rs.sweeps {
			lats = append(lats, l.Seconds())
		}
		steps = rs.steps
	}
	rss := peakRSSMB()
	for r := len(setups); r < minSetups; r++ {
		d, err := w.setupTime(e, r)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds())
	}
	p50, p90 := quantile(lats, 0.5), quantile(lats, 0.9)
	fmt.Fprintf(e.stderr, "perfbench: %d units of work, wall min %.4f / median %.4f / max %.4f s, %d sweep samples (p50 %.6f s, p90 %.6f s), %d/%d ops failed\n",
		len(walls), quantile(walls, 0), median(walls), quantile(walls, 1), len(lats), p50, p90, ops.failed, ops.attempted)
	return report{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics: map[string]metric{
			"wall_s":       {median(walls), "s"},
			"msteps_per_s": {float64(steps) / median(walls) / 1e6, "Msteps/s"},
			"setup_s":      {median(setups), "s"},
			"peak_rss_mb":  {rss, "MB"},
			"sweep_p50_s":  {p50, "s"},
			"sweep_p90_s":  {p90, "s"},
		},
	}, nil
}

// tracedRun runs one untraced round, then the same round traced, then
// the layer replays, and reports the per-layer metrics.
func tracedRun(e *env, w workload) (report, error) {
	plain, err := w.round(e, 0, nil)
	if err != nil {
		return report{}, err
	}
	tr := newTrace()
	traced, err := w.round(e, 1, tr)
	if err != nil {
		return report{}, err
	}
	if err := w.layers(e, tr); err != nil {
		return report{}, err
	}
	ops := plain.ops
	ops.add(traced.ops)
	ops.failed += tr.failed
	tr.set("trace.coverage", tr.roots.Seconds()/traced.wall.Seconds(), "ratio")
	tr.set("trace.overhead", traced.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	tr.printSelfTimes(e.stderr, traced.wall)
	if cov := tr.metrics["trace.coverage"].Value; cov < 0.9 {
		return report{}, fmt.Errorf("trace coverage %.3f < 0.9: a layer is missing from the trace", cov)
	}
	return report{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   tr.filled(),
	}, nil
}

// peakRSSMB is the process's peak resident set size (getrusage
// maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the middle value (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// scratchPath names a file of round r inside the run's directory.
func (e *env) scratchPath(r int, name string) string {
	return filepath.Join(e.tmp, fmt.Sprintf("r%d-%s", r, name))
}
