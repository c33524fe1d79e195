package sweep

import (
	"context"
	"strings"
	"testing"
)

func smallGrid() []Job {
	return []Job{
		{Workload: Workload{Kind: SCU, S: 1}, N: 2, Steps: 5000, Exact: true},
		{Workload: Workload{Kind: FetchInc}, N: 2, Steps: 5000},
		{Workload: Workload{Kind: SCU, S: 1}, N: 3, Steps: 5000, Exact: true},
		{Workload: Workload{Kind: FetchInc}, N: 3, Steps: 5000},
		{Workload: Workload{Kind: SCU, S: 1}, N: 4, Steps: 5000,
			Sched: SchedulerSpec{Kind: SchedSticky, Rho: 0.5}},
	}
}

func TestSweepBatchFamiliesPreservesResults(t *testing.T) {
	jobs := smallGrid()
	plain, err := Run(Config{Jobs: jobs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(Config{Jobs: jobs, Seed: 9, BatchFamilies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Latencies != batched[i].Latencies || plain[i].Seed != batched[i].Seed {
			t.Errorf("job %d differs under batching: %+v vs %+v", i, plain[i], batched[i])
		}
		if batched[i].Index != i {
			t.Errorf("result %d has index %d", i, batched[i].Index)
		}
	}
}

func TestDispatchOrderGroupsFamilies(t *testing.T) {
	cfg := Config{Jobs: smallGrid(), BatchFamilies: true}
	var order []int
	for _, grp := range dispatchGroups(cfg, Points(cfg), nil) {
		order = append(order, grp...)
	}
	if len(order) != len(cfg.Jobs) {
		t.Fatalf("order has %d entries for %d jobs", len(order), len(cfg.Jobs))
	}
	// Jobs of the same family must be adjacent in dispatch order.
	family := func(i int) string {
		j := cfg.Jobs[i]
		return string(j.Workload.Kind) + "/" + string(j.Sched.Kind)
	}
	seen := map[string]bool{}
	last := ""
	for _, i := range order {
		f := family(i)
		if f != last && seen[f] {
			t.Fatalf("family %s split across the dispatch order %v", f, order)
		}
		seen[f] = true
		last = f
	}
}

func TestSweepOnResultSeesEveryJobOnce(t *testing.T) {
	jobs := smallGrid()
	var got []int
	results, err := Run(Config{
		Jobs: jobs, Seed: 5, Workers: 3,
		OnResult: func(r Result) { got = append(got, r.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("OnResult saw %d results for %d jobs", len(got), len(jobs))
	}
	seen := make([]bool, len(jobs))
	for _, i := range got {
		if seen[i] {
			t.Errorf("job %d delivered twice", i)
		}
		seen[i] = true
	}
	_ = results
}

func TestSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{Workload: Workload{Kind: FetchInc}, N: 4, Steps: 200000}
	}
	delivered := 0
	_, err := Run(Config{
		Jobs: jobs, Seed: 1, Workers: 2,
		OnResult: func(Result) {
			delivered++
			if delivered == 1 {
				cancel()
			}
		},
		Context: ctx,
	})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if delivered == len(jobs) {
		t.Error("cancellation did not stop the sweep early")
	}
}
