package sweep

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pwf/internal/obs"
	"pwf/internal/rng"
)

// equivalenceGrid is a grid crossing every scheduler kind with
// batchable and fallback workloads, crash plans, warmup, and exact
// analysis — the surface the byte-identity contract must cover.
func equivalenceGrid() []Job {
	const steps = 3000
	scheds := []SchedulerSpec{
		{},
		{Kind: SchedUniform},
		{Kind: SchedRoundRobin},
		{Kind: SchedSticky, Rho: 0.8},
		{Kind: SchedLottery, Tickets: []int{1, 2, 3, 4, 5, 6, 7}},
		{Kind: SchedWeighted, Weights: []float64{1, 1, 2, 2, 3, 3, 4}},
		{Kind: SchedPhased, Phases: []PhaseSpec{
			{Weights: []float64{3, 1, 1, 1, 1, 1, 1}, Steps: 40},
			{Weights: []float64{1, 1, 1, 1, 1, 1, 3}, Steps: 60},
		}},
		{Kind: SchedAdversary, Victim: 2},
	}
	workloads := []Workload{
		{Kind: SCU, S: 1},
		{Kind: SCU, Q: 2, S: 3},
		{Kind: Parallel, Q: 3},
		{Kind: FetchInc},
		{Kind: Unbounded},
		{Kind: Stack},
		{Kind: Stack, PoolSize: 8}, // small pool: recycles slots through the precise-GC scan
		{Kind: Queue},
		{Kind: Queue, PoolSize: 8},
		{Kind: RCU},
		{Kind: LFUniversal},
		{Kind: List},        // no batched form: exercises the fallback
		{Kind: WFUniversal}, // no batched form: exercises the fallback
	}
	var jobs []Job
	for _, sc := range scheds {
		for _, w := range workloads {
			job := Job{Workload: w, N: 7, Sched: sc, Steps: steps,
				WarmupFraction: 0.1, Replicas: 3, Label: sc.String()}
			jobs = append(jobs, job)
			if sc.Kind != SchedAdversary {
				crashed := job
				crashed.Crash = 2
				jobs = append(jobs, crashed)
			}
		}
	}
	// A couple of exact-analysis points.
	jobs = append(jobs,
		Job{Workload: Workload{Kind: SCU, S: 1}, N: 5, Steps: steps, Exact: true, Replicas: 2},
		Job{Workload: Workload{Kind: FetchInc}, N: 5, Steps: steps, Exact: true, Replicas: 2},
	)
	return jobs
}

// TestReplicaBatchMatchesScalar is the tentpole's acceptance
// contract: a batched sweep is byte-identical to the scalar sweep for
// the same grid and master seed, for every field except wall time.
func TestReplicaBatchMatchesScalar(t *testing.T) {
	jobs := equivalenceGrid()
	scalar, err := Run(Config{Jobs: jobs, Seed: 77, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 4, 16} {
		batched, err := Run(Config{Jobs: jobs, Seed: 77, Workers: 3, ReplicaBatch: width})
		if err != nil {
			t.Fatal(err)
		}
		if len(batched) != len(scalar) {
			t.Fatalf("width %d: %d results, scalar %d", width, len(batched), len(scalar))
		}
		for i := range scalar {
			a, b := scalar[i], batched[i]
			a.Elapsed, b.Elapsed = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("width %d point %d (%s): batched %+v, scalar %+v",
					width, i, describe(scalar[i].Job), b, a)
			}
		}
	}
}

// TestBatchFallbackObservability pins the execution-path telemetry of
// a batched sweep: points that coalesce onto the replica-batched core
// count into sweep_batch_jobs, points that cannot batch count into
// sweep_batch_fallbacks, and OnBatchFallback reports each distinct
// reason exactly once no matter how many points share it.
func TestBatchFallbackObservability(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var reasons []string
	jobs := []Job{
		{Workload: Workload{Kind: SCU, S: 1}, N: 5, Steps: 300, Replicas: 4},
		{Workload: Workload{Kind: List}, N: 5, Steps: 300, Replicas: 3},
		{Workload: Workload{Kind: WFUniversal}, N: 5, Steps: 300, Replicas: 2},
	}
	if _, err := Run(Config{
		Jobs: jobs, Seed: 5, Workers: 2, ReplicaBatch: 8,
		Registry: reg,
		OnBatchFallback: func(reason string) {
			mu.Lock()
			reasons = append(reasons, reason)
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sweep_batch_jobs").Load(); got != 4 {
		t.Errorf("sweep_batch_jobs = %d, want 4", got)
	}
	if got := reg.Counter("sweep_batch_fallbacks").Load(); got != 5 {
		t.Errorf("sweep_batch_fallbacks = %d, want 5", got)
	}
	if len(reasons) != 2 {
		t.Fatalf("OnBatchFallback reasons = %q, want one per workload kind", reasons)
	}
	for _, r := range reasons {
		if !strings.Contains(r, "no batched form") {
			t.Errorf("reason %q does not name the missing batched form", r)
		}
	}

	// A scalar sweep of the same grid must leave the registry silent.
	reg2 := obs.NewRegistry()
	if _, err := Run(Config{Jobs: jobs, Seed: 5, Workers: 2, Registry: reg2}); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("sweep_batch_jobs").Load() + reg2.Counter("sweep_batch_fallbacks").Load(); got != 0 {
		t.Errorf("scalar sweep touched the batch counters: %d", got)
	}
}

// TestBatchErrorPathMatchesScalar pins the failure side of the
// byte-identity contract: a workload whose invariant check fails — a
// stack, queue or RCU whose node pools exhaust — must surface the
// identical wrapped error from the batched path as from the scalar
// path, rather than succeeding quietly or failing with a different
// message. The batched pools grow a row at a time, so the larger pools
// pin a process growing its pool through every row to the last one and
// then exhausting it.
func TestBatchErrorPathMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		w Workload
		n int
	}{
		{Workload{Kind: Queue, PoolSize: 2}, 7},
		{Workload{Kind: Stack, PoolSize: 2}, 7},
		{Workload{Kind: RCU, PoolSize: 2}, 7},
		{Workload{Kind: Stack, PoolSize: 3}, 16},
		{Workload{Kind: Queue, PoolSize: 4}, 16},
		{Workload{Kind: RCU, PoolSize: 4}, 16},
	} {
		jobs := []Job{{Workload: tc.w, N: tc.n, Steps: 3000, Replicas: 4}}
		_, serr := Run(Config{Jobs: jobs, Seed: 77, Workers: 1})
		if serr == nil {
			t.Errorf("scalar run of %s n=%d with %d-node pools succeeded; want pool exhaustion", tc.w.Kind, tc.n, tc.w.PoolSize)
			continue
		}
		_, berr := Run(Config{Jobs: jobs, Seed: 77, Workers: 1, ReplicaBatch: 4})
		if berr == nil {
			t.Errorf("batched run of %s n=%d with %d-node pools succeeded; want pool exhaustion", tc.w.Kind, tc.n, tc.w.PoolSize)
			continue
		}
		if serr.Error() != berr.Error() {
			t.Errorf("batched error %q, scalar error %q", berr, serr)
		}
	}
}

// TestReplicasExpandPoints pins the seed layout of Replicas: a job
// with Replicas = r occupies r consecutive point indices, each with
// the stream seed of its index, exactly as if the job were written
// out r times.
func TestReplicasExpandPoints(t *testing.T) {
	shape := Job{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 500}
	other := Job{Workload: Workload{Kind: FetchInc}, N: 3, Steps: 500}
	grouped := shape
	grouped.Replicas = 3

	got, err := Run(Config{Jobs: []Job{grouped, other}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{Jobs: []Job{shape, shape, shape, other}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(want) != 4 {
		t.Fatalf("got %d results, manual expansion %d, want 4", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != i || got[i].Seed != rng.Stream(11, uint64(i)) {
			t.Errorf("point %d: index %d seed %d, want index %d seed %d",
				i, got[i].Index, got[i].Seed, i, rng.Stream(11, uint64(i)))
		}
		if got[i].Latencies != want[i].Latencies {
			t.Errorf("point %d: latencies %+v, manual expansion %+v",
				i, got[i].Latencies, want[i].Latencies)
		}
	}
	if got[0].Latencies == got[1].Latencies && got[1].Latencies == got[2].Latencies {
		t.Error("replica points produced identical latencies; seed streams not distinct")
	}
}

// schedCapture records the scheduling decisions of a scalar run.
type schedCapture struct {
	mu   sync.Mutex
	pids []int32
}

func (c *schedCapture) Record(e obs.Event) {
	if e.Kind == obs.KindSched {
		c.mu.Lock()
		c.pids = append(c.pids, int32(e.PID))
		c.mu.Unlock()
	}
}

// TestBatchDrawerReplaysScalarTrace pins identical schedules through
// the telemetry layer: the pid sequence a traced scalar job observes
// is exactly the sequence the batch drawer deals to that replica.
func TestBatchDrawerReplaysScalarTrace(t *testing.T) {
	const (
		n     = 6
		steps = 2000
		seed0 = 9001
	)
	job := Job{
		Workload: Workload{Kind: SCU, S: 2},
		N:        n,
		Sched:    SchedulerSpec{Kind: SchedWeighted, Weights: []float64{1, 2, 3, 4, 5, 6}},
		Steps:    steps,
	}
	seeds := []uint64{seed0, seed0 + 1, seed0 + 2}
	traces := make([][]int32, len(seeds))
	for r, seed := range seeds {
		cap := &schedCapture{}
		traced := job
		traced.Recorder = cap
		if _, err := RunJob(traced, seed, nil); err != nil {
			t.Fatal(err)
		}
		traces[r] = cap.pids
	}
	drawer, err := job.Sched.build(n, seeds)
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]int32, len(seeds))
	for step := 0; step < steps; step++ {
		if err := drawer.NextBatch(pids); err != nil {
			t.Fatal(err)
		}
		for r := range seeds {
			if pids[r] != traces[r][step] {
				t.Fatalf("step %d replica %d: batch drawer pid %d, traced scalar pid %d",
					step, r, pids[r], traces[r][step])
			}
		}
	}
}

// TestSlowOnResultDoesNotBlockProgress is the regression test for
// callbacks running under the sweep bookkeeping mutex: a stalled
// OnResult must not stop other workers from finishing jobs and
// driving Progress to completion.
func TestSlowOnResultDoesNotBlockProgress(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Workload: Workload{Kind: SCU, S: 1}, N: 3, Steps: 200}
	}
	release := make(chan struct{})
	allDone := make(chan struct{})
	var once sync.Once
	var delivered sync.WaitGroup
	delivered.Add(len(jobs))
	cfg := Config{
		Jobs: jobs, Seed: 1, Workers: 2,
		OnResult: func(Result) {
			delivered.Done()
			<-release // every delivery stalls until the test releases it
		},
		Progress: func(done, total int) {
			if done == total {
				once.Do(func() { close(allDone) })
			}
		},
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		runDone <- err
	}()
	select {
	case <-allDone:
		// Progress reached done == total while OnResult was stalled.
	case <-time.After(30 * time.Second):
		t.Fatal("Progress never reached done == total while OnResult was blocked")
	}
	close(release)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	delivered.Wait() // every result was still delivered exactly once
}

// TestFamilyKeyDistinguishesParameters is the regression test for the
// dispatch family key: jobs sharing a scheduler kind but differing in
// weight vectors, process count, or crash plan are different families
// and must not interleave into one batch group.
func TestFamilyKeyDistinguishesParameters(t *testing.T) {
	base := Job{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 100,
		Sched: SchedulerSpec{Kind: SchedWeighted, Weights: []float64{1, 2, 3, 4}}}
	variants := []func(Job) Job{
		func(j Job) Job { j.Sched.Weights = []float64{4, 3, 2, 1}; return j },
		func(j Job) Job {
			j.N = 5
			j.Sched.Weights = []float64{1, 2, 3, 4, 5}
			return j
		},
		func(j Job) Job { j.Crash = 1; return j },
		func(j Job) Job { j.Workload.PoolSize = 9; return j },
		func(j Job) Job { j.Steps = 200; return j },
	}
	for i, v := range variants {
		if shapeKey(base) == shapeKey(v(base)) {
			t.Errorf("variant %d has the same shape key as the base job", i)
		}
	}
	same := base
	same.Label = "other-label"
	if shapeKey(base) != shapeKey(same) {
		t.Error("labels must not split shapes")
	}

	// End to end: alternating weight vectors never share a group.
	a, b := base, variants[0](base)
	cfg := Config{Jobs: []Job{a, b, a, b, a, b}, ReplicaBatch: 8}
	points := Points(cfg)
	for _, grp := range dispatchGroups(cfg, points, nil) {
		for _, i := range grp[1:] {
			if shapeKey(points[i]) != shapeKey(points[grp[0]]) {
				t.Fatalf("group %v mixes shapes", grp)
			}
		}
	}
}
