package pwf_test

import (
	"fmt"
	"math"

	"pwf"
)

// The headline claim: under the uniform stochastic scheduler the
// lock-free counter's system latency stays below the Lemma 12 bound
// 2√n, and every process completes at the same rate (Theorem 4).
//
// This is also the migration from the removed Simulate* wrappers:
// where code previously called
//
//	pwf.SimulateFetchInc(n, steps, seed)        // removed
//	pwf.SimulateSCU(n, q, s, steps, seed)       // removed
//
// it now builds the same measurement from a declarative workload and
// sets the fields it needs on the config — which additionally exposes
// the scheduler model and warmup window:
//
//	cfg := pwf.NewRunConfig(pwf.FetchIncWorkload(), n) // or SCUWorkload(q, s)
//	cfg.Steps, cfg.Seed = steps, seed
//	pwf.Run(cfg)
func ExampleRun() {
	cfg := pwf.NewRunConfig(pwf.FetchIncWorkload(), 8)
	cfg.Steps, cfg.Seed = 500000, 1
	lat, err := pwf.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	exact, err := pwf.ExactFetchIncLatency(8)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("W below 2*sqrt(n):", lat.System < 2*math.Sqrt(8))
	fmt.Println("simulation within 5% of the exact chain:",
		math.Abs(lat.System-exact)/exact < 0.05)
	fmt.Println("individual latency is n times system latency:",
		math.Abs(lat.Individual/(8*lat.System)-1) < 0.05)
	fmt.Println("fair:", lat.Fairness > 0.99)
	// Output:
	// W below 2*sqrt(n): true
	// simulation within 5% of the exact chain: true
	// individual latency is n times system latency: true
	// fair: true
}

// Verifying the paper's key analytical tool: the individual Markov
// chain of the scan-validate pattern lifts onto the small system
// chain (Lemma 5), so per-process latencies follow from the
// system-level analysis.
func ExampleVerifySCULifting() {
	report, err := pwf.VerifySCULifting(4)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("flow equations hold:", report.MaxFlowError < 1e-9)
	fmt.Println("Lemma 1 marginals hold:", report.MaxMarginalError < 1e-9)
	// Output:
	// flow equations hold: true
	// Lemma 1 marginals hold: true
}

// Composing the pieces by hand: Algorithm 1 (the unbounded lock-free
// algorithm of Lemma 2) starves all but one process even under a fair
// random scheduler, while bounded SCU does not.
func ExampleNewSim() {
	run := func(procs []pwf.Process, memSize int, seed uint64) (starved int) {
		s, err := pwf.NewUniformScheduler(len(procs), seed)
		if err != nil {
			return -1
		}
		sim, err := pwf.NewSim(memSize, procs, s)
		if err != nil {
			return -1
		}
		if err := sim.Run(300000); err != nil {
			return -1
		}
		return len(sim.StarvedProcesses())
	}

	bounded, err := pwf.NewSCUProcesses(8, 0, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	unbounded, err := pwf.NewUnboundedProcesses(8, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("bounded SCU starved:", run(bounded, pwf.SCUMemSize(1), 1))
	fmt.Println("Algorithm 1 starved:", run(unbounded, pwf.UnboundedMemSize, 2))
	// Output:
	// bounded SCU starved: 0
	// Algorithm 1 starved: 7
}
