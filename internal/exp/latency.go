package exp

import (
	"fmt"
	"math"

	"pwf/internal/chains"
	"pwf/internal/stats"
	"pwf/internal/sweep"
)

// scuJob builds one SCU(q, s) sweep job under the uniform stochastic
// scheduler with the conventional warmup.
func scuJob(n, q, s int, window uint64, exact bool) sweep.Job {
	return sweep.Job{
		Workload:       sweep.Workload{Kind: sweep.SCU, Q: q, S: s},
		N:              n,
		Steps:          window,
		WarmupFraction: sweep.DefaultWarmupFraction,
		Exact:          exact,
	}
}

// SystemLatencySweep reproduces the Theorem 5 / Corollary 1 claim:
// the system latency of SCU(q, s) under the uniform stochastic
// scheduler behaves as O(q + s·√n). It sweeps n for several (q, s)
// and reports the measured latency, the exact chain value (for
// SCU(0,1)), and the fitted √n exponent. The whole grid runs on the
// parallel sweep engine; the exact values ride along via the chain
// cache.
func SystemLatencySweep(cfg Config) (*Table, error) {
	var ns []int
	if cfg.Quick {
		ns = []int{2, 4, 8, 16}
	} else {
		ns = []int{2, 4, 8, 16, 32, 64}
	}
	window := cfg.steps(2000000, 150000)

	// Three (q, s) configurations per n, plus the large-n SCU(0,1)
	// rows whose exact values come from the sparse solver instead.
	var largeNs []int
	if !cfg.Quick {
		largeNs = []int{128, 256}
	}
	var jobs []sweep.Job
	for _, n := range ns {
		jobs = append(jobs,
			scuJob(n, 0, 1, window, true),
			scuJob(n, 0, 3, window, true),
			scuJob(n, 4, 1, window, true),
		)
	}
	for _, n := range largeNs {
		jobs = append(jobs, scuJob(n, 0, 1, window, false))
	}
	results, err := cfg.runSweep(jobs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E4",
		Title: "Theorem 5: system latency of SCU(q, s) vs n",
		Header: []string{
			"n", "W sim (0,1)", "W exact (0,1)", "W sim (0,3)", "W exact (0,3)",
			"W sim (4,1)", "W exact (4,1)", "q + s*sqrt(n)",
		},
	}

	var xs, ys []float64
	for i, n := range ns {
		r01, r03, r41 := results[3*i], results[3*i+1], results[3*i+2]
		xs = append(xs, float64(n))
		ys = append(ys, r01.Latencies.System)
		t.AddRow(n,
			r01.Latencies.System, exactOrDash(r01),
			r03.Latencies.System, exactOrDash(r03),
			r41.Latencies.System, exactOrDash(r41),
			1*math.Sqrt(float64(n)))
	}

	// Large-n rows: the lazy iteration gives exact SCU(0,1) values
	// beyond the direct solve's range.
	for i, n := range largeNs {
		r := results[3*len(ns)+i]
		exact, err := chains.SCUSystemLatencyLarge(n)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(n))
		ys = append(ys, r.Latencies.System)
		t.AddRow(n, r.Latencies.System, exact, "-", "-", "-", "-",
			1*math.Sqrt(float64(n)))
	}

	if _, p, r2, err := stats.PowerFit(xs, ys); err == nil {
		t.Note = fmt.Sprintf(
			"SCU(0,1) system latency grows as n^%.3f (R²=%.3f); Theorem 5 predicts exponent 0.5; "+
				"exact (q,s)-chain values shown where tractable (dense solve to n=64, sparse "+
				"lazy iteration for n=128, 256)",
			p, r2)
	}
	return t, nil
}

// exactOrDash returns the result's exact-chain latency as a cell
// value, or "-" when the chain was intractable.
func exactOrDash(r sweep.Result) any {
	if !r.ExactOK {
		return "-"
	}
	return r.Exact
}

// IndividualLatencyFairness reproduces the Theorem 4 fairness claim:
// the individual latency of every process is n times the system
// latency, i.e. the expected completion rate is identical across
// processes.
func IndividualLatencyFairness(cfg Config) (*Table, error) {
	var ns []int
	if cfg.Quick {
		ns = []int{2, 4, 8}
	} else {
		ns = []int{2, 4, 8, 16, 32}
	}
	window := cfg.steps(2000000, 200000)

	jobs := make([]sweep.Job, len(ns))
	for i, n := range ns {
		jobs[i] = scuJob(n, 0, 1, window, false)
	}
	results, err := cfg.runSweep(jobs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E5",
		Title: "Theorem 4: individual latency = n × system latency",
		Header: []string{
			"n", "W sim", "mean W_i sim", "W_i/(n*W)", "max/min completions",
		},
	}
	worst := 0.0
	for i, n := range ns {
		w, wi := results[i].Latencies.System, results[i].Latencies.Individual
		ratio := wi / (float64(n) * w)
		if d := math.Abs(ratio - 1); d > worst {
			worst = d
		}
		comps := results[i].ProcCompletions
		minC, maxC := comps[0], comps[0]
		for _, c := range comps {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		spread := math.Inf(1)
		if minC > 0 {
			spread = float64(maxC) / float64(minC)
		}
		t.AddRow(n, w, wi, ratio, spread)
	}
	t.Note = fmt.Sprintf(
		"max |W_i/(n·W) − 1| = %.3f; Theorem 4 predicts the ratio is exactly 1 in stationarity",
		worst)
	return t, nil
}

// ParallelCode reproduces Lemma 11: for parallel code with q steps,
// the system latency is exactly q and the individual latency exactly
// n·q — compared here across the exact chains and the simulation.
func ParallelCode(cfg Config) (*Table, error) {
	window := cfg.steps(1000000, 100000)
	cases := []struct{ n, q int }{
		{2, 2}, {3, 3}, {4, 2}, {2, 5},
	}
	if !cfg.Quick {
		cases = append(cases, struct{ n, q int }{4, 4}, struct{ n, q int }{6, 3})
	}

	jobs := make([]sweep.Job, len(cases))
	for i, tc := range cases {
		jobs[i] = sweep.Job{
			Workload:       sweep.Workload{Kind: sweep.Parallel, Q: tc.q},
			N:              tc.n,
			Steps:          window,
			WarmupFraction: sweep.DefaultWarmupFraction,
			Exact:          true,
		}
	}
	results, err := cfg.runSweep(jobs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E6",
		Title: "Lemma 11: parallel code latencies (W = q, W_i = n·q)",
		Header: []string{
			"n", "q", "W exact", "W sim", "W_i exact", "W_i sim",
		},
	}
	for i, tc := range cases {
		if !results[i].ExactOK {
			return nil, fmt.Errorf("exp: parallel chain n=%d q=%d intractable", tc.n, tc.q)
		}
		ind, _, err := sweep.DefaultCache.ParallelIndividual(tc.n, tc.q)
		if err != nil {
			return nil, err
		}
		wiExact, err := ind.IndividualLatency(0)
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.n, tc.q, results[i].Exact, results[i].Latencies.System,
			wiExact, results[i].Latencies.Individual)
	}
	t.Note = "exact values are q and n·q to solver precision; simulated values converge to them"
	return t, nil
}
