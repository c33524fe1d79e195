package pwf

// One benchmark per experiment (table/figure) of the paper, plus
// benchmarks for the ablations DESIGN.md calls out. Each experiment
// bench runs the reduced (Quick) configuration per iteration; run
// cmd/pwfrepro for the full-size tables.

import (
	"testing"

	"pwf/internal/chains"
	"pwf/internal/exp"
	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

func benchExperiment(b *testing.B, run func(exp.Config) (*exp.Table, error)) {
	b.Helper()
	cfg := exp.Config{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Fig3StepShare(b *testing.B)        { benchExperiment(b, exp.Fig3StepShares) }
func BenchmarkE2Fig4NextStep(b *testing.B)         { benchExperiment(b, exp.Fig4NextStep) }
func BenchmarkE3Fig5CompletionRate(b *testing.B)   { benchExperiment(b, exp.Fig5CompletionRate) }
func BenchmarkE4SystemLatencySqrtN(b *testing.B)   { benchExperiment(b, exp.SystemLatencySweep) }
func BenchmarkE5IndividualLatency(b *testing.B)    { benchExperiment(b, exp.IndividualLatencyFairness) }
func BenchmarkE6ParallelCode(b *testing.B)         { benchExperiment(b, exp.ParallelCode) }
func BenchmarkE7FetchIncReturnTime(b *testing.B)   { benchExperiment(b, exp.FetchIncAnalysis) }
func BenchmarkE8MinToMaxProgress(b *testing.B)     { benchExperiment(b, exp.MinToMaxProgress) }
func BenchmarkE9UnboundedStarvation(b *testing.B)  { benchExperiment(b, exp.UnboundedStarvation) }
func BenchmarkE10LiftingVerification(b *testing.B) { benchExperiment(b, exp.LiftingVerification) }
func BenchmarkE11PhaseLength(b *testing.B)         { benchExperiment(b, exp.BallsBinsPhases) }
func BenchmarkE12CrashLatency(b *testing.B)        { benchExperiment(b, exp.CrashLatency) }
func BenchmarkE13SchedulerAblation(b *testing.B)   { benchExperiment(b, exp.SchedulerAblation) }
func BenchmarkE14ReplaySchedule(b *testing.B)      { benchExperiment(b, exp.ReplaySchedule) }
func BenchmarkE15WaitFreePrice(b *testing.B)       { benchExperiment(b, exp.WaitFreePrice) }
func BenchmarkE16OpLatencyDistribution(b *testing.B) {
	benchExperiment(b, exp.OpLatencyDistribution)
}
func BenchmarkE17HashSetScaling(b *testing.B) { benchExperiment(b, exp.HashSetScaling) }

// --- Ablation: stationary-distribution solver -----------------------

func BenchmarkStationaryDirectSolve(b *testing.B) {
	sys, _, err := chains.SCUSystem(32)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.Chain.StationarySolve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStationaryPowerIteration(b *testing.B) {
	// The fetch-inc chain is ergodic, so power iteration converges.
	glob, err := chains.FetchIncGlobal(64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := glob.Chain.StationaryPower(1e-10, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulation throughput ------------------------------------------

func benchSimSteps(b *testing.B, n, q, s int) {
	b.Helper()
	mem, err := shmem.New(scu.SCULayout(s))
	if err != nil {
		b.Fatal(err)
	}
	procs, err := scu.NewSCUGroup(n, q, s, 0)
	if err != nil {
		b.Fatal(err)
	}
	u, err := sched.NewUniform(n, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := machine.New(mem, procs, u)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSCU01N8(b *testing.B)  { benchSimSteps(b, 8, 0, 1) }
func BenchmarkSimSCU01N64(b *testing.B) { benchSimSteps(b, 64, 0, 1) }
func BenchmarkSimSCU43N8(b *testing.B)  { benchSimSteps(b, 8, 4, 3) }

// --- Public API round trips -----------------------------------------

func BenchmarkRunFetchInc(b *testing.B) {
	cfg := NewRunConfig(FetchIncWorkload(), 8)
	cfg.Steps = 50000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSCULatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExactSCUSystemLatency(32); err != nil {
			b.Fatal(err)
		}
	}
}
