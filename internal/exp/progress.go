package exp

import (
	"fmt"

	"pwf/internal/progress"
	"pwf/internal/sweep"
)

// MinToMaxProgress reproduces Theorem 3: under a stochastic scheduler
// with threshold θ > 0, a bounded lock-free algorithm is wait-free
// with probability 1. We run SCU(0,1) — whose minimal progress bound
// is T = 2n+1 steps (if every process takes two consecutive steps,
// someone must win) — under schedulers with different θ and check
// that every process keeps completing, reporting the empirical
// maximal-progress bound against the (astronomically loose) Theorem 3
// bound (1/θ)^T.
func MinToMaxProgress(cfg Config) (*Table, error) {
	n := cfg.num(8, 4)
	window := cfg.steps(1000000, 100000)

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 10
	cases := []struct {
		name  string
		sched sweep.SchedulerSpec
		seed  uint64
	}{
		{"uniform", sweep.SchedulerSpec{Kind: sweep.SchedUniform}, cfg.Seed},
		{"weighted 10:1", sweep.SchedulerSpec{Kind: sweep.SchedWeighted, Weights: weights}, cfg.Seed + 1},
		{"sticky rho=0.9", sweep.SchedulerSpec{Kind: sweep.SchedSticky, Rho: 0.9}, cfg.Seed + 2},
		{"adversary (theta=0)", sweep.SchedulerSpec{Kind: sweep.SchedAdversary, Victim: 0}, 0},
	}

	t := &Table{
		ID:    "E8",
		Title: "Theorem 3: bounded minimal progress becomes maximal progress when theta > 0",
		Header: []string{
			"scheduler", "theta", "starved procs", "empirical max-progress bound", "(1/theta)^T",
		},
	}
	for _, tc := range cases {
		var collector progress.Collector
		res, err := sweep.RunJob(sweep.Job{
			Workload:       sweep.Workload{Kind: sweep.SCU, S: 1},
			N:              n,
			Sched:          tc.sched,
			Steps:          window,
			CompletionHook: collector.Observe,
		}, tc.seed, nil)
		if err != nil {
			return nil, err
		}
		trace, err := collector.Trace(n, window)
		if err != nil {
			return nil, err
		}
		maxBound, err := trace.MaximalProgressBound()
		if err != nil {
			return nil, err
		}
		starved := len(trace.Starved())

		theta := res.Theta
		theoretical := "n/a (adversary)"
		if theta > 0 {
			// Minimal progress bound of SCU(0,1): within any window of
			// T = 2n+1 consecutive steps by one process, that process
			// completes (2 solo steps win; the bound is per Theorem 3's
			// "T consecutive steps" argument with T = 2).
			bound, err := progress.Theorem3ExpectedBound(theta, 2)
			if err != nil {
				return nil, err
			}
			theoretical = fmt.Sprintf("%.4g", bound)
		}
		t.AddRow(tc.name, theta, starved, maxBound, theoretical)
	}
	t.Note = "every stochastic scheduler (theta > 0) yields zero starved processes; " +
		"the theta = 0 adversary starves its victim forever — exactly the Theorem 3 dichotomy"
	return t, nil
}

// UnboundedStarvation reproduces Lemma 2: Algorithm 1 is lock-free
// but, because its minimal progress is unbounded, it is not
// wait-free even under the uniform stochastic scheduler — one process
// monopolises the object with high probability.
func UnboundedStarvation(cfg Config) (*Table, error) {
	var ns []int
	if cfg.Quick {
		ns = []int{4, 8}
	} else {
		ns = []int{4, 8, 16}
	}
	window := cfg.steps(2000000, 200000)

	t := &Table{
		ID:    "E9",
		Title: "Lemma 2: the unbounded lock-free Algorithm 1 is not practically wait-free",
		Header: []string{
			"n", "total ops", "dominant share", "starved procs", "fairness index", "SCU(0,1) fairness",
		},
	}
	for _, n := range ns {
		// Algorithm 1 with the default n² wait factor.
		res, err := sweep.RunJob(sweep.Job{
			Workload: sweep.Workload{Kind: sweep.Unbounded}, N: n, Steps: window,
		}, cfg.Seed+uint64(n), nil)
		if err != nil {
			return nil, err
		}
		var maxC uint64
		for _, c := range res.ProcCompletions {
			if c > maxC {
				maxC = c
			}
		}
		total := res.Latencies.Completions
		share := 0.0
		if total > 0 {
			share = float64(maxC) / float64(total)
		}

		// Contrast: SCU(0,1), same budget, is fair.
		fair, err := sweep.RunJob(sweep.Job{
			Workload: sweep.Workload{Kind: sweep.SCU, S: 1}, N: n, Steps: window,
		}, cfg.Seed+uint64(n)+1000, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, total, share, len(res.Starved),
			res.Latencies.Fairness, fair.Latencies.Fairness)
	}
	t.Note = "Algorithm 1 concentrates nearly all completions on one process " +
		"(fairness index → 1/n), while bounded SCU under the same scheduler stays at ≈ 1"
	return t, nil
}
