package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pwf/internal/api"
	"pwf/internal/checkpoint"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// exactTolerance bounds the relative distance between a point's
// simulated system latency and its exact-chain value.
const exactTolerance = 0.05

// gridWorkload runs one whole grid per round on one sweep worker, as
// pwfsweep does, and writes its canonical NDJSON output.
type gridWorkload struct {
	name       string
	build      func(seed, steps uint64) api.Grid
	steps      uint64 // window per point
	checkpoint bool   // file checkpoint at the default FlushEvery
	observe    bool   // sweep-level obs.Metrics recorder, as pwfsim -metrics
	pinned     map[uint64]string
}

func newBatchedWorkload() *gridWorkload {
	return &gridWorkload{name: "grid-batched", build: batchedGrid, steps: batchedSteps,
		checkpoint: true, pinned: pinnedDigests["grid-batched"]}
}

func newObservedWorkload() *gridWorkload {
	return &gridWorkload{name: "grid-observed", build: observedGrid, steps: observedSteps,
		observe: true, pinned: pinnedDigests["grid-observed"]}
}

// replicaBatch is the width every grid runs with: pwfsweep's and
// pwfserve's default.
const replicaBatch = 16

// config builds the sweep configuration of a decoded grid.
func (g *gridWorkload) config(grid api.Grid, reg *obs.Registry) sweep.Config {
	return sweep.Config{
		Jobs:          grid.SweepJobs(),
		Seed:          grid.Seed,
		Workers:       1,
		Cache:         sweep.NewChainCache(),
		BatchFamilies: true,
		ReplicaBatch:  replicaBatch,
		Registry:      reg,
	}
}

// gridSetup is one round's state before its timed part.
type gridSetup struct {
	grid               api.Grid
	cfg                sweep.Config
	cp                 *checkpoint.Log
	ckptPath           string
	decodeDur, openDur time.Duration
}

// setup builds the grid from the seed, decodes it as a submission is
// decoded, and opens the round's checkpoint log.
func (g *gridWorkload) setup(e *env, r int, tr *trace) (*gridSetup, error) {
	body, err := api.MarshalGrid(g.build(e.seed, g.steps))
	if err != nil {
		return nil, err
	}
	s := &gridSetup{ckptPath: e.scratchPath(r, "grid.ckpt")}
	decodeStart := time.Now()
	if s.grid, err = api.DecodeGrid(bytes.NewReader(body)); err != nil {
		return nil, err
	}
	s.decodeDur = time.Since(decodeStart)
	reg := obs.NewRegistry()
	s.cfg = g.config(s.grid, reg)
	if g.observe {
		s.cfg.Recorder = obs.NewMetrics(reg)
		if tr != nil {
			tr.recorder = &countingRecorder{rec: s.cfg.Recorder}
			s.cfg.Recorder = tr.recorder
		}
	}
	if g.checkpoint {
		openStart := time.Now()
		if s.cp, err = checkpoint.Open(s.ckptPath, s.cfg, checkpoint.Options{Registry: reg}); err != nil {
			return nil, err
		}
		s.openDur = time.Since(openStart)
		s.cfg.Checkpoint = s.cp
		if tr != nil {
			tr.commits = &timedCheckpoint{Checkpoint: s.cp}
			s.cfg.Checkpoint = tr.commits
		}
	}
	return s, nil
}

func (g *gridWorkload) setupTime(e *env, r int) (time.Duration, error) {
	began := time.Now()
	s, err := g.setup(e, r, nil)
	d := time.Since(began)
	if err != nil {
		return 0, err
	}
	if s.cp != nil {
		s.cp.Close()
		os.Remove(s.ckptPath)
	}
	return d, nil
}

func (g *gridWorkload) round(e *env, r int, tr *trace) (roundStats, error) {
	if r > 0 {
		// Start from a collected heap: a round's peak memory is then
		// its own, not whatever garbage the round before left behind.
		runtime.GC()
	}
	began := time.Now()
	if r == 0 {
		began = processStart
	}
	st, err := g.setup(e, r, tr)
	if err != nil {
		return roundStats{}, err
	}
	setup := time.Since(began)
	grid, cfg, cp, ckptPath := st.grid, st.cfg, st.cp, st.ckptPath

	outPath := e.scratchPath(r, "results.ndjson")
	var (
		results []sweep.Result
		runErr  error
		encode  time.Duration
	)
	start := time.Now()
	runSweep := func() error {
		results, runErr = sweep.Run(cfg)
		return nil
	}
	writeOut := func() error {
		if runErr != nil {
			return nil
		}
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		for _, res := range results {
			t0 := time.Now()
			if err := api.WriteResultLine(f, api.ResultFromSweep(res)); err != nil {
				f.Close()
				return err
			}
			encode += time.Since(t0)
		}
		return f.Close()
	}
	closeLog := func() error {
		if cp == nil {
			return nil
		}
		return cp.Close()
	}
	_ = tr.span("sweep", runSweep)
	runWall := time.Since(start)
	err = tr.span("api", writeOut)
	if cerr := tr.span("checkpoint", closeLog); err == nil {
		err = cerr
	}
	wall := time.Since(start)
	if err != nil {
		return roundStats{}, err
	}

	points := len(cfg.Jobs)
	ops := g.check(e, points, results, runErr, outPath, ckptPath)
	if tr != nil {
		tr.grid, tr.results, tr.cache, tr.reg = cfg.Jobs, results, cfg.Cache, cfg.Registry
		tr.runWall = runWall
		tr.set("api.decode_us", float64(st.decodeDur)/1e3, "us")
		tr.set("checkpoint.open_ms", float64(st.openDur)/1e6, "ms")
		tr.set("chains.cache_misses", float64(cfg.Cache.Misses()), "count")
		tr.set("chains.cache_hits", float64(cfg.Cache.Hits()), "count")
		tr.set("api.encode_us", float64(encode)/1e3/float64(points), "us")
		if fi, err := os.Stat(outPath); err == nil {
			tr.set("api.bytes_per_result", float64(fi.Size())/float64(points), "B")
		}
	}
	os.Remove(outPath)
	os.Remove(ckptPath)
	return roundStats{
		setup:  setup,
		wall:   wall,
		units:  []time.Duration{wall},
		sweeps: []time.Duration{wall},
		steps:  gridSteps(grid),
		ops:    ops,
	}, nil
}

// check verifies one round's output: the NDJSON digest (pinned for
// the seed, else equal across rounds), the checkpoint log read back
// line for line, and every exact point's simulated latency against
// its chain. Each point that fails any check is one failed operation.
func (g *gridWorkload) check(e *env, points int, results []sweep.Result, runErr error, outPath, ckptPath string) tally {
	t := tally{attempted: points}
	failAll := func(format string, args ...any) tally {
		fmt.Fprintf(e.stderr, "perfbench: %s: %s\n", g.name, fmt.Sprintf(format, args...))
		t.failed = points
		return t
	}
	if runErr != nil {
		return failAll("sweep failed: %v", runErr)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		return failAll("read output: %v", err)
	}
	sum := sha256.Sum256(data)
	if msg := e.checkDigest(g.name, g.pinned, hex.EncodeToString(sum[:])); msg != "" {
		return failAll("%s", msg)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != points || len(results) != points {
		return failAll("%d output lines, %d results for %d points", len(lines), len(results), points)
	}
	bad := make([]bool, points)
	if g.checkpoint {
		if msg := readBack(ckptPath, lines, bad); msg != "" {
			return failAll("%s", msg)
		}
	}
	for i, res := range results {
		if !res.ExactOK {
			continue
		}
		if dev := math.Abs(res.Latencies.System-res.Exact) / res.Exact; dev > exactTolerance {
			fmt.Fprintf(e.stderr, "perfbench: %s: point %d (%s) simulated W %.4f vs exact %.4f\n",
				g.name, i, res.Label, res.Latencies.System, res.Exact)
			bad[i] = true
		}
	}
	for _, b := range bad {
		if b {
			t.failed++
		}
	}
	return t
}

// readBack loads a checkpoint log and marks every point whose record
// does not re-encode to its output line, or is missing. It returns a
// message when the log cannot be read at all.
func readBack(path string, lines [][]byte, bad []bool) string {
	_, recs, err := checkpoint.Load(path)
	if err != nil {
		return fmt.Sprintf("checkpoint read-back: %v", err)
	}
	seen := make([]bool, len(lines))
	for _, rec := range recs {
		i := rec.Index
		if i < 0 || i >= len(lines) || seen[i] {
			return fmt.Sprintf("checkpoint read-back: bad or repeated index %d", i)
		}
		seen[i] = true
		b, err := api.MarshalResult(rec)
		if err != nil || !bytes.Equal(append(b, '\n'), lines[i]) {
			bad[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			bad[i] = true
		}
	}
	return ""
}

// checkDigest compares an output digest with the one pinned for the
// seed, or, for an unpinned seed, with the first digest this run saw
// for the same output. It returns a message on mismatch.
func (e *env) checkDigest(output string, pinned map[uint64]string, got string) string {
	want, ok := pinned[e.seed]
	if !ok {
		if want, ok = e.digests[output]; !ok {
			e.digests[output] = got
			fmt.Fprintf(e.stderr, "perfbench: %s digest %s (none pinned for seed %d)\n", output, got, e.seed)
			return ""
		}
	}
	if got != want {
		return fmt.Sprintf("output digest %s, want %s", got, want)
	}
	return ""
}

// layers attributes the traced round's sweep time to layers by
// replaying each layer's share from outside: the scheduler draws, the
// exact chains, and the recorder, leaving the workload step as the
// remainder of job time.
func (g *gridWorkload) layers(e *env, tr *trace) error {
	var jobTime time.Duration
	var elapsed []time.Duration
	var steps, window, completions uint64
	for _, res := range tr.results {
		jobTime += res.Elapsed
		elapsed = append(elapsed, res.Elapsed)
		steps += pointSteps(res.Job)
		window += res.Job.Steps
		completions += res.Latencies.Completions
	}
	schedTime, draws, err := replaySched(tr.results, !g.observe)
	if err != nil {
		return err
	}
	build, solve, states, err := replayChains(tr.grid)
	if err != nil {
		return err
	}
	var obsTime time.Duration
	if g.observe {
		if obsTime, err = g.recordTime(e, tr); err != nil {
			return err
		}
		tr.set("obs.events", float64(tr.recorder.n.Load()), "count")
		tr.set("obs.record_ns", float64(obsTime)/float64(tr.recorder.n.Load()), "ns")
	}
	var commits time.Duration
	if tr.commits != nil {
		commits = tr.commits.total()
		c := durations(tr.commits.commits, time.Microsecond)
		tr.set("checkpoint.commit_us_p50", quantile(c, 0.5), "us")
		tr.set("checkpoint.commit_us_p99", quantile(c, 0.99), "us")
	}
	machine := jobTime - schedTime - build - solve - obsTime
	overhead := tr.runWall - jobTime - commits

	snap := tr.reg.Snapshot()
	tr.self["sweep"] = overhead
	tr.self["sched"] = schedTime
	tr.self["machine"] = machine
	tr.self["chains"] = build + solve
	tr.self["obs"] = obsTime
	tr.self["checkpoint"] += commits

	tr.set("sched.draw_ns", float64(schedTime)/float64(draws), "ns")
	tr.set("sched.share", schedTime.Seconds()/jobTime.Seconds(), "ratio")
	tr.set("machine.step_ns", float64(machine)/float64(steps), "ns")
	tr.set("machine.steps", float64(steps), "count")
	tr.set("scu.completions_per_kstep", 1000*float64(completions)/float64(window), "1/kstep")
	ms := durations(elapsed, time.Millisecond)
	tr.set("sweep.job_p50_ms", quantile(ms, 0.5), "ms")
	tr.set("sweep.job_p90_ms", quantile(ms, 0.9), "ms")
	tr.set("sweep.overhead_s", overhead.Seconds(), "s")
	tr.set("sweep.batch_jobs", float64(snap.Counters["sweep_batch_jobs"]), "count")
	tr.set("sweep.batch_fallbacks", float64(snap.Counters["sweep_batch_fallbacks"]), "count")
	tr.set("chains.build_s", build.Seconds(), "s")
	tr.set("markov.solve_s", solve.Seconds(), "s")
	tr.set("chains.states", float64(states), "count")
	tr.set("checkpoint.syncs", float64(snap.Counters["checkpoint_syncs"]), "count")
	tr.set("checkpoint.bytes", float64(snap.Counters["checkpoint_bytes_written"]), "B")
	return nil
}

// recordTime is the recorder's cost: the observed grid's wall minus
// the same grid's wall unobserved on the scalar path the recorder
// forces, both with the traced round's warm chain cache so chain
// construction cancels out.
func (g *gridWorkload) recordTime(e *env, tr *trace) (time.Duration, error) {
	grid := g.build(e.seed, g.steps)
	plain := g.config(grid, obs.NewRegistry())
	plain.Cache, plain.ReplicaBatch = tr.cache, 1
	observed := g.config(grid, obs.NewRegistry())
	observed.Cache = tr.cache
	observed.Recorder = obs.NewMetrics(observed.Registry)
	var walls [2]time.Duration
	for i, cfg := range []sweep.Config{plain, observed} {
		began := time.Now()
		if _, err := sweep.Run(cfg); err != nil {
			return 0, err
		}
		walls[i] = time.Since(began)
	}
	return walls[1] - walls[0], nil
}
