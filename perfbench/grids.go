package main

import (
	"fmt"

	"pwf/internal/api"
	"pwf/internal/rng"
	"pwf/internal/sweep"
)

// Grid sizes. Each workload's round is fixed work; these constants are
// the whole of its size, so a change to them is a change of benchmark.
const (
	batchedSteps    = 40_000 // grid-batched: window per point
	batchedReplicas = 16     // grid-batched: seed replicas per shape

	observedSteps    = 60_000 // grid-observed: window per point
	observedReplicas = 2      // grid-observed: seed replicas per shape

	serveSteps    = 2_000 // serve-loop: window per job
	serveReplicas = 4     // serve-loop: replicas per kind in one grid
	serveN        = 8     // serve-loop: process count
	serveSweeps   = 6_000 // serve-loop: sweeps per round, on one server
	serveUnit     = 5     // serve-loop: sweeps per timed unit of work

	warmupFraction = sweep.DefaultWarmupFraction
)

// kind is one named workload parameterization of a grid.
type kind struct {
	name string
	w    sweep.Workload
}

// batchableKinds are the eight workloads with a struct-of-arrays form,
// parameterized as pwfsweep's default grid parameterizes them.
var batchableKinds = []kind{
	{"scu", sweep.Workload{Kind: sweep.SCU, S: 1}},
	{"fetchinc", sweep.Workload{Kind: sweep.FetchInc}},
	{"parallel", sweep.Workload{Kind: sweep.Parallel, Q: 1}},
	{"unbounded", sweep.Workload{Kind: sweep.Unbounded}},
	{"stack", sweep.Workload{Kind: sweep.Stack}},
	{"queue", sweep.Workload{Kind: sweep.Queue}},
	{"rcu", sweep.Workload{Kind: sweep.RCU}},
	{"lfuniversal", sweep.Workload{Kind: sweep.LFUniversal}},
}

// scalarOnlyKinds have no batched form; grid-observed adds them.
var scalarOnlyKinds = []kind{
	{"list", sweep.Workload{Kind: sweep.List}},
	{"hashset", sweep.Workload{Kind: sweep.HashSet}},
	{"wfuniversal", sweep.Workload{Kind: sweep.WFUniversal}},
}

// exactKinds are the families with an exact Markov chain. Parallel
// code uses q = 3 here: its q = 1 chain has a single state.
var exactKinds = []kind{
	{"scu(0,1)", sweep.Workload{Kind: sweep.SCU, S: 1}},
	{"scu(0,3)", sweep.Workload{Kind: sweep.SCU, S: 3}},
	{"scu(4,1)", sweep.Workload{Kind: sweep.SCU, Q: 4, S: 1}},
	{"fetchinc", sweep.Workload{Kind: sweep.FetchInc}},
	{"parallel(3)", sweep.Workload{Kind: sweep.Parallel, Q: 3}},
}

var (
	gridScheds = []string{"uniform", "sticky:0.5", "lottery"}
	gridNs     = []int{4, 16, 64}
)

// masterSeed maps the benchmark's --seed onto a grid master seed, so
// neighbouring seeds do not share splitmix streams.
func masterSeed(seed uint64, grid uint64) uint64 { return rng.Stream(seed, grid) }

// shapeJobs expands kinds × schedulers × process counts × replicas
// into labeled jobs, replicas adjacent, as pwfsweep does.
func shapeJobs(kinds []kind, replicas int, steps uint64) []api.Job {
	var jobs []api.Job
	for _, k := range kinds {
		for _, s := range gridScheds {
			spec, err := sweep.ParseScheduler(s)
			if err != nil {
				panic(err) // the scheduler names above are constants
			}
			for _, n := range gridNs {
				for r := 0; r < replicas; r++ {
					jobs = append(jobs, api.Job{
						Workload: k.w, N: n, Sched: spec,
						Steps: steps, WarmupFraction: warmupFraction,
						Label: fmt.Sprintf("%s/%s/n%d/r%d", k.name, s, n, r),
					})
				}
			}
		}
	}
	return jobs
}

// batchedGrid is grid-batched's input: the 8 batchable kinds × 3
// schedulers × 3 process counts × 16 replicas (1,152 points).
func batchedGrid(seed, steps uint64) api.Grid {
	return api.Grid{V: api.Version, Seed: masterSeed(seed, 0),
		Jobs: shapeJobs(batchableKinds, batchedReplicas, steps)}
}

// observedGrid is grid-observed's input: all 11 kinds × 3 schedulers
// × 3 process counts × 2 replicas, plus as many exact points per
// exact family and process count under the uniform scheduler (the
// chains assume it). The SCU(q, s) chains are tractable at n = 4 only;
// the larger points still ask for them, and fail fast, as a sweep does.
func observedGrid(seed, steps uint64) api.Grid {
	kinds := append(append([]kind{}, batchableKinds...), scalarOnlyKinds...)
	jobs := shapeJobs(kinds, observedReplicas, steps)
	for _, k := range exactKinds {
		for _, n := range gridNs {
			for r := 0; r < observedReplicas; r++ {
				jobs = append(jobs, api.Job{
					Workload: k.w, N: n, Steps: steps,
					WarmupFraction: warmupFraction, Exact: true,
					Label: fmt.Sprintf("exact/%s/n%d/r%d", k.name, n, r),
				})
			}
		}
	}
	return api.Grid{V: api.Version, Seed: masterSeed(seed, 1), Jobs: jobs}
}

// serveGrid is sweep j of a serve-loop round: 4 kinds × 4 replicas at
// n = 8, each sweep under its own master seed.
func serveGrid(seed uint64, j int) api.Grid {
	var jobs []api.Job
	for _, k := range batchableKinds[:2] {
		jobs = append(jobs, serveJobs(k)...)
	}
	for _, k := range batchableKinds[4:6] {
		jobs = append(jobs, serveJobs(k)...)
	}
	return api.Grid{V: api.Version, Seed: rng.Stream(masterSeed(seed, 2), uint64(j)), Jobs: jobs}
}

func serveJobs(k kind) []api.Job {
	jobs := make([]api.Job, serveReplicas)
	for r := range jobs {
		jobs[r] = api.Job{
			Workload: k.w, N: serveN, Steps: serveSteps,
			WarmupFraction: warmupFraction,
			Label:          fmt.Sprintf("%s/r%d", k.name, r),
		}
	}
	return jobs
}

// gridSteps is the number of simulated steps, warmup plus window, over
// every point of a grid.
func gridSteps(g api.Grid) uint64 {
	var total uint64
	for _, j := range g.Jobs {
		total += pointSteps(j.Sweep())
	}
	return total
}

// pointSteps mirrors the sweep engine's warmup rounding.
func pointSteps(j sweep.Job) uint64 {
	return uint64(j.WarmupFraction*float64(j.Steps)) + j.Steps
}
