package sweep

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// testGrid is a mixed-family grid exercising every determinism-relevant
// code path: several workloads, schedulers, process counts and warmup
// fractions.
func testGrid() []Job {
	var jobs []Job
	for _, n := range []int{2, 4, 8} {
		jobs = append(jobs,
			Job{Workload: Workload{Kind: SCU, S: 1}, N: n, Steps: 20000,
				WarmupFraction: DefaultWarmupFraction, Exact: true},
			Job{Workload: Workload{Kind: FetchInc}, N: n, Steps: 20000, Exact: true},
			Job{Workload: Workload{Kind: Parallel, Q: 3}, N: n, Steps: 10000,
				Sched: SchedulerSpec{Kind: SchedSticky, Rho: 0.5}},
			Job{Workload: Workload{Kind: Stack}, N: n, Steps: 10000,
				WarmupFraction: 0.25},
		)
	}
	return jobs
}

// stripElapsed zeroes the wall-time field, the only legitimately
// nondeterministic part of a result.
func stripElapsed(results []Result) []Result {
	out := make([]Result, len(results))
	copy(out, results)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testGrid()
	serial, err := Run(Config{Jobs: jobs, Seed: 42, Workers: 1, Cache: NewChainCache()})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(Config{Jobs: jobs, Seed: 42, Workers: 8, Cache: NewChainCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(serial), stripElapsed(parallel)) {
		for i := range serial {
			if !reflect.DeepEqual(stripElapsed(serial[i:i+1]), stripElapsed(parallel[i:i+1])) {
				t.Errorf("job %d diverged:\n  serial:   %+v\n  parallel: %+v",
					i, serial[i], parallel[i])
			}
		}
		t.Fatal("sweep results differ between 1 and 8 workers")
	}
}

func TestSweepResultsInInputOrder(t *testing.T) {
	jobs := testGrid()
	results, err := Run(Config{Jobs: jobs, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Index != i {
			t.Errorf("result %d has index %d", i, res.Index)
		}
		if res.Job.N != jobs[i].N || res.Job.Workload.Kind != jobs[i].Workload.Kind {
			t.Errorf("result %d does not echo job %d", i, i)
		}
		if res.Latencies.Completions == 0 {
			t.Errorf("job %d measured zero completions", i)
		}
		if len(res.ProcCompletions) != jobs[i].N {
			t.Errorf("job %d: %d per-process counts for n=%d",
				i, len(res.ProcCompletions), jobs[i].N)
		}
	}
}

func TestSweepSeedsFollowStreamDerivation(t *testing.T) {
	// Changing the master seed must change every job's derived seed,
	// and two identical jobs at different indices must draw different
	// seeds (they are distinct stream indices).
	jobs := []Job{
		{Workload: Workload{Kind: FetchInc}, N: 2, Steps: 5000},
		{Workload: Workload{Kind: FetchInc}, N: 2, Steps: 5000},
	}
	results, err := Run(Config{Jobs: jobs, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Seed == results[1].Seed {
		t.Error("identical jobs at different indices share a seed")
	}
	again, err := Run(Config{Jobs: jobs, Seed: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Seed == results[0].Seed {
		t.Error("different master seeds derived the same job seed")
	}
}

func TestSweepExactLatencies(t *testing.T) {
	jobs := []Job{
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 5000, Exact: true},
		{Workload: Workload{Kind: FetchInc}, N: 4, Steps: 5000, Exact: true},
		{Workload: Workload{Kind: Parallel, Q: 2}, N: 3, Steps: 5000, Exact: true},
		{Workload: Workload{Kind: Stack}, N: 4, Steps: 5000, Exact: true},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 5000},
	}
	results, err := Run(Config{Jobs: jobs, Seed: 3, Workers: 2, Cache: NewChainCache()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !results[i].ExactOK {
			t.Errorf("job %d: exact latency unavailable", i)
		}
	}
	// Lemma 11: parallel code has W exactly q.
	if w := results[2].Exact; math.Abs(w-2) > 1e-9 {
		t.Errorf("parallel exact W = %v, want 2", w)
	}
	// No chain family for the stack; not requested for the last job.
	if results[3].ExactOK || results[4].ExactOK {
		t.Error("exact latency reported where none was available or requested")
	}
}

func TestSweepProgressCallback(t *testing.T) {
	jobs := testGrid()
	var mu sync.Mutex
	var calls []int
	_, err := Run(Config{
		Jobs: jobs, Seed: 1, Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(jobs) {
				t.Errorf("progress total %d, want %d", total, len(jobs))
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(jobs) {
		t.Fatalf("%d progress calls for %d jobs", len(calls), len(jobs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress calls out of order: %v", calls)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	base := Job{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 1000}
	bad := []Job{
		{},
		{Workload: Workload{Kind: "nope"}, N: 4, Steps: 1000},
		{Workload: Workload{Kind: SCU, S: 1}, N: 0, Steps: 1000},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4},
		{Workload: Workload{Kind: Parallel}, N: 4, Steps: 1000},
		{Workload: Workload{Kind: WFUniversal, PoolSize: 1}, N: 4, Steps: 1000},
		func() Job { j := base; j.WarmupFraction = 1; return j }(),
		func() Job { j := base; j.WarmupFraction = -0.1; return j }(),
		func() Job { j := base; j.WarmupFraction = math.NaN(); return j }(),
		func() Job { j := base; j.Crash = 4; return j }(),
		func() Job { j := base; j.Crash = -1; return j }(),
		func() Job { j := base; j.Sched = SchedulerSpec{Kind: "nope"}; return j }(),
		func() Job { j := base; j.Sched = SchedulerSpec{Kind: SchedSticky, Rho: 1}; return j }(),
		func() Job {
			j := base
			j.Sched = SchedulerSpec{Kind: SchedLottery, Tickets: []int{1, 1}}
			return j
		}(),
		func() Job { j := base; j.Sched = SchedulerSpec{Kind: SchedAdversary, Victim: 4}; return j }(),
	}
	for i, job := range bad {
		if err := job.Validate(); err == nil {
			t.Errorf("bad job %d validated: %+v", i, job)
		}
		if _, err := Run(Config{Jobs: []Job{job}, Seed: 1}); err == nil {
			t.Errorf("bad job %d ran: %+v", i, job)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("good job rejected: %v", err)
	}
	if _, err := Run(Config{Seed: 1}); err == nil {
		t.Error("empty sweep ran")
	}
}

// TestValidateRejectsPoolsRefsCannotNumber pins the largest node pool
// each data-structure kind accepts: a ref keeps slot+1 in 20 bits, so
// a pool numbering more than scu.MaxPoolSlots slots would alias slots
// through the tag. Before Validate checked it, a stack at n = 4 with
// pool_size 400000 and 4 replicas of 100,000 steps at seed 1 ran with
// scalar W 6.9075 and batched W 6.9682.
func TestValidateRejectsPoolsRefsCannotNumber(t *testing.T) {
	for _, tc := range []struct {
		w       Workload
		n, pool int // the largest pool_size that fits, 0 for the default
	}{
		{Workload{Kind: Stack}, 4, 262143},       // 4·pool
		{Workload{Kind: Queue}, 4, 262143},       // 4·pool + 1
		{Workload{Kind: RCU}, 9, 349525},         // 3 updaters·pool
		{Workload{Kind: List}, 4, 262143},        // 4·pool + 2
		{Workload{Kind: HashSet}, 4, 262143},     // 4·pool + 2 per bucket
		{Workload{Kind: WFUniversal}, 4, 262143}, // 4·pool + 1
		{Workload{Kind: Stack}, 16383, 0},        // 16383·64
		{Workload{Kind: HashSet}, 32767, 0},      // 32767·32 + 2
		{Workload{Kind: WFUniversal}, 131071, 0}, // 131071·8 + 1
	} {
		fits, over := tc.w, tc.w
		fits.PoolSize = tc.pool
		over.PoolSize = tc.pool + 1
		overN := tc.n
		if tc.pool == 0 {
			over.PoolSize = 0
			overN++
		}
		if err := fits.Validate(tc.n); err != nil {
			t.Errorf("%s n=%d pool_size %d rejected: %v", fits.Kind, tc.n, fits.PoolSize, err)
		}
		if err := over.Validate(overN); !errors.Is(err, ErrPoolTooLarge) {
			t.Errorf("%s n=%d pool_size %d: err %v, want ErrPoolTooLarge", over.Kind, overN, over.PoolSize, err)
		}
	}
	job := Job{Workload: Workload{Kind: Stack, PoolSize: 400000}, N: 4, Steps: 100, Replicas: 4}
	if _, err := Run(Config{Jobs: []Job{job}, Seed: 1, ReplicaBatch: 4}); !errors.Is(err, ErrPoolTooLarge) {
		t.Errorf("stack n=4 pool_size 400000 ran: err %v, want ErrPoolTooLarge", err)
	}
}

func TestSweepJobErrorNamesJob(t *testing.T) {
	// Round-robin supports no randomness but does support crashes;
	// adversary supports neither. A crash request against the
	// adversary must fail validation with the job identified.
	jobs := []Job{
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 1000},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 1000,
			Sched: SchedulerSpec{Kind: SchedAdversary}, Crash: 1},
	}
	_, err := Run(Config{Jobs: jobs, Seed: 1, Workers: 2})
	if err == nil {
		t.Fatal("crash on adversary scheduler succeeded")
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Errorf("error does not name the failing job: %v", err)
	}
}

func TestSweepCrashAndSchedulers(t *testing.T) {
	jobs := []Job{
		{Workload: Workload{Kind: SCU, S: 1}, N: 8, Steps: 10000, Crash: 4},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 10000,
			Sched: SchedulerSpec{Kind: SchedRoundRobin}},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 10000,
			Sched: SchedulerSpec{Kind: SchedLottery, Tickets: []int{2, 1, 1, 1}}},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 10000,
			Sched: SchedulerSpec{Kind: SchedAdversary, Victim: 0}},
	}
	results, err := Run(Config{Jobs: jobs, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Latencies.Completions; got == 0 {
		t.Error("crashed run made no progress")
	}
	if results[1].Theta != 0 {
		t.Errorf("round-robin theta = %v, want 0", results[1].Theta)
	}
	if results[2].Theta != 0.2 {
		t.Errorf("2:1:1:1 lottery theta = %v, want 0.2", results[2].Theta)
	}
	if len(results[3].Starved) == 0 {
		t.Error("adversary starved nobody")
	}
}

func TestSweepCompletionHook(t *testing.T) {
	var mu sync.Mutex
	count := 0
	jobs := []Job{{
		Workload: Workload{Kind: FetchInc}, N: 2, Steps: 5000,
		CompletionHook: func(step uint64, pid int) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	}}
	results, err := Run(Config{Jobs: jobs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(count) < results[0].Latencies.Completions {
		t.Errorf("hook saw %d completions, metrics saw %d",
			count, results[0].Latencies.Completions)
	}
}

func TestParseScheduler(t *testing.T) {
	good := map[string]SchedulerSpec{
		"uniform":     {Kind: SchedUniform},
		"roundrobin":  {Kind: SchedRoundRobin},
		"lottery":     {Kind: SchedLottery},
		"sticky:0.9":  {Kind: SchedSticky, Rho: 0.9},
		"adversary:2": {Kind: SchedAdversary, Victim: 2},
	}
	for name, want := range good {
		got, err := ParseScheduler(name)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q parsed to %+v, want %+v", name, got, want)
		}
	}
	for _, name := range []string{"nope", "sticky:abc", "sticky:1.5", "sticky:-0.1", "adversary:x"} {
		if _, err := ParseScheduler(name); err == nil {
			t.Errorf("%q parsed", name)
		}
	}
}

func TestSchedulerSpecString(t *testing.T) {
	for _, tc := range []struct {
		spec SchedulerSpec
		want string
	}{
		{SchedulerSpec{}, "uniform"},
		{SchedulerSpec{Kind: SchedSticky, Rho: 0.9}, "sticky:0.9"},
		{SchedulerSpec{Kind: SchedRoundRobin}, "roundrobin"},
		{SchedulerSpec{Kind: SchedAdversary, Victim: 3}, "adversary:3"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestRunJobMatchesSweep(t *testing.T) {
	// A single-job sweep and RunJob with the stream-derived seed must
	// agree exactly.
	job := Job{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 20000,
		WarmupFraction: DefaultWarmupFraction}
	results, err := Run(Config{Jobs: []Job{job}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunJob(job, results[0].Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Latencies != results[0].Latencies {
		t.Errorf("RunJob latencies %+v differ from sweep %+v",
			direct.Latencies, results[0].Latencies)
	}
}
