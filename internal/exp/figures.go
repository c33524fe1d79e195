package exp

import (
	"fmt"
	"math"

	"pwf/internal/native"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/stats"
	"pwf/internal/sweep"
)

// Fig3StepShares reproduces Figure 3: the fraction of steps each
// process takes over a long execution, for the real OS scheduler
// (atomic-ticket recording) and for the uniform stochastic model. The
// paper's observation: in the long run every thread takes about 1/n
// of the steps.
func Fig3StepShares(cfg Config) (*Table, error) {
	n := cfg.num(8, 4)
	ops := cfg.num(200000, 20000)

	schedule, err := native.RecordSchedule(n, ops)
	if err != nil {
		return nil, fmt.Errorf("record native schedule: %w", err)
	}
	nativeShares := schedule.StepShares()

	u, err := sched.NewUniform(n, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	rec, err := sched.NewRecorder(u)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n*ops; i++ {
		if _, err := rec.Next(); err != nil {
			return nil, err
		}
	}
	modelShares := rec.StepShares()

	t := &Table{
		ID:     "E1",
		Title:  "Figure 3: percentage of steps taken by each process",
		Header: []string{"process", "native share", "model share", "ideal 1/n"},
	}
	ideal := 1 / float64(n)
	var worstNative float64
	for pid := 0; pid < n; pid++ {
		t.AddRow(pid, nativeShares[pid], modelShares[pid], ideal)
		if d := math.Abs(nativeShares[pid] - ideal); d > worstNative {
			worstNative = d
		}
	}
	t.Note = fmt.Sprintf(
		"long-run scheduler fairness: max |native share - 1/n| = %.4f over %d recorded steps",
		worstNative, schedule.Len())
	return t, nil
}

// Fig4NextStep reproduces Figure 4: the distribution of which process
// is scheduled immediately after a step by process 0 — locally the
// schedule looks close to uniform.
func Fig4NextStep(cfg Config) (*Table, error) {
	n := cfg.num(8, 4)
	ops := cfg.num(200000, 20000)

	schedule, err := native.RecordSchedule(n, ops)
	if err != nil {
		return nil, fmt.Errorf("record native schedule: %w", err)
	}
	nativeDist, err := schedule.NextStepDistribution(0)
	if err != nil {
		return nil, err
	}

	u, err := sched.NewUniform(n, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	rec, err := sched.NewRecorder(u)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n*ops; i++ {
		if _, err := rec.Next(); err != nil {
			return nil, err
		}
	}
	modelDist, err := rec.NextStepDistribution(0)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "E2",
		Title:  "Figure 4: P(next step by p_j | current step by p_0)",
		Header: []string{"next process", "native", "model", "ideal 1/n"},
	}
	ideal := 1 / float64(n)
	for pid := 0; pid < n; pid++ {
		t.AddRow(pid, nativeDist[pid], modelDist[pid], ideal)
	}
	t.Note = "the model is uniform by construction; the native distribution shows the " +
		"local self-scheduling bias real schedulers have, which washes out at long horizons (E1)"
	return t, nil
}

// Fig5CompletionRate reproduces Figure 5: the completion rate of the
// CAS-loop fetch-and-increment counter versus thread count, against
// the model's Θ(1/√n) prediction and the worst-case 1/n rate. As in
// the paper, the prediction is scaled to the first data point.
func Fig5CompletionRate(cfg Config) (*Table, error) {
	var ns []int
	if cfg.Quick {
		ns = []int{1, 2, 4, 8}
	} else {
		ns = []int{1, 2, 4, 8, 16, 32, 64}
	}
	simSteps := cfg.steps(2000000, 100000)
	nativeOps := cfg.num(200000, 20000)

	t := &Table{
		ID:    "E3",
		Title: "Figure 5: completion rate vs number of threads",
		Header: []string{
			"n", "sim rate", "native rate", "predicted c/sqrt(n)", "worst-case c'/n",
		},
	}

	// Simulated counters under the uniform stochastic scheduler: the
	// whole n-grid runs in parallel on the sweep engine.
	jobs := make([]sweep.Job, len(ns))
	for i, n := range ns {
		jobs[i] = sweep.Job{
			Workload:       sweep.Workload{Kind: sweep.FetchInc},
			N:              n,
			Steps:          simSteps,
			WarmupFraction: sweep.DefaultWarmupFraction,
		}
	}
	results, err := cfg.runSweep(jobs)
	if err != nil {
		return nil, err
	}
	simRates := make([]float64, len(ns))
	for i, r := range results {
		simRates[i] = r.Latencies.CompletionRate
	}

	// Native counters on the real scheduler, serially: these measure
	// actual goroutine contention and must not share the machine with
	// other timing-sensitive work.
	nativeRates := make([]float64, len(ns))
	for i, n := range ns {
		res, err := native.MeasureCASCounterRate(n, nativeOps, nil)
		if err != nil {
			return nil, err
		}
		nativeRates[i] = res.Rate()
	}

	// Scale predictions to the first data point, as the paper does.
	cSqrt := simRates[0] * math.Sqrt(float64(ns[0]))
	cWorst := simRates[0] * float64(ns[0])
	for i, n := range ns {
		t.AddRow(n, simRates[i], nativeRates[i],
			cSqrt/math.Sqrt(float64(n)), cWorst/float64(n))
	}

	// Fit the simulated decay exponent: rate ~ n^-p, expect p ≈ 0.5.
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	if _, p, r2, err := stats.PowerFit(xs, simRates); err == nil {
		t.Note = fmt.Sprintf(
			"simulated rate decays as n^%.3f (R²=%.3f); paper predicts Θ(1/√n), worst case 1/n",
			p, r2)
	}
	return t, nil
}
