// Package exp is the experiment harness: one runner per table/figure
// of the paper (and per analytical claim), each producing a Table
// whose rows mirror what the paper plots. cmd/pwfrepro runs the whole
// suite; the repository-root benchmarks time each experiment.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	E1  Figure 3    per-process step shares
//	E2  Figure 4    conditional next-step distribution
//	E3  Figure 5    completion rate vs Θ(1/√n) and worst case 1/n
//	E4  Theorem 5   system latency scaling of SCU(0, s)
//	E5  Theorem 4   individual latency = n × system latency
//	E6  Lemma 11    parallel code W = q, W_i = n·q
//	E7  Lemma 12    fetch-and-inc return times and Ramanujan Q
//	E8  Theorem 3   bounded minimal → maximal progress
//	E9  Lemma 2     unbounded lock-free starves losers
//	E10 Lemmas 5/10/13  lifting verification
//	E11 Lemmas 8–9  balls-into-bins phase lengths
//	E12 Corollary 2 latency under crashes scales with k
//	E13 Section 8   scheduler ablation
package exp

import (
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/sweep"
)

// Config controls experiment sizes.
type Config struct {
	// Seed drives all simulation randomness.
	Seed uint64
	// Quick shrinks the experiments for tests and smoke runs.
	Quick bool
	// Workers bounds the sweep engine's worker pool; 0 selects
	// GOMAXPROCS.
	Workers int
}

// runSweep executes a job grid on the parallel sweep engine with this
// configuration's seed and worker bound. Exact-chain requests share
// the process-wide cache, so chains reappearing across experiments are
// built once.
func (c Config) runSweep(jobs []sweep.Job) ([]sweep.Result, error) {
	return sweep.Run(sweep.Config{Jobs: jobs, Seed: c.Seed, Workers: c.Workers})
}

// steps returns full when Quick is off, otherwise quick.
func (c Config) steps(full, quick uint64) uint64 {
	if c.Quick {
		return quick
	}
	return full
}

// num returns full when Quick is off, otherwise quick.
func (c Config) num(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All returns the full experiment suite in index order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Name: "Figure 3: step shares", Run: Fig3StepShares},
		{ID: "E2", Name: "Figure 4: next-step distribution", Run: Fig4NextStep},
		{ID: "E3", Name: "Figure 5: completion rate", Run: Fig5CompletionRate},
		{ID: "E4", Name: "Theorem 5: system latency scaling", Run: SystemLatencySweep},
		{ID: "E5", Name: "Theorem 4: individual latency fairness", Run: IndividualLatencyFairness},
		{ID: "E6", Name: "Lemma 11: parallel code latencies", Run: ParallelCode},
		{ID: "E7", Name: "Lemma 12: fetch-and-inc analysis", Run: FetchIncAnalysis},
		{ID: "E8", Name: "Theorem 3: min-to-max progress", Run: MinToMaxProgress},
		{ID: "E9", Name: "Lemma 2: unbounded starvation", Run: UnboundedStarvation},
		{ID: "E10", Name: "Lemmas 5/10/13: lifting verification", Run: LiftingVerification},
		{ID: "E11", Name: "Lemmas 8-9: balls-into-bins phases", Run: BallsBinsPhases},
		{ID: "E12", Name: "Corollary 2: latency under crashes", Run: CrashLatency},
		{ID: "E13", Name: "Ablation: scheduler models", Run: SchedulerAblation},
		{ID: "E14", Name: "Replay: real schedule into the simulator", Run: ReplaySchedule},
		{ID: "E15", Name: "The price of wait-freedom", Run: WaitFreePrice},
		{ID: "E16", Name: "Per-operation latency distribution", Run: OpLatencyDistribution},
		{ID: "E17", Name: "Hash set bucket scaling", Run: HashSetScaling},
	}
}

// newUniform builds a seeded uniform scheduler (shared helper).
func newUniform(n int, seed uint64) (*sched.Uniform, error) {
	return sched.NewUniform(n, rng.New(seed))
}
