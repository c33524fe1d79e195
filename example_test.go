package pwf_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

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

// Reading a trace back. A trace file is binary (format v2);
// ReadTraceEvents decodes it into events, and json.Marshal prints each
// event as one JSON line holding the fields its kind defines. The PIDs
// of the sched events, in order, are the run's schedule.
func ExampleReadTraceEvents() {
	var file bytes.Buffer // an *os.File in practice
	tw, err := pwf.NewTraceWriter(&file, pwf.TraceCompressGzip)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 2)
	cfg.Steps, cfg.Seed, cfg.Recorder = 100, 3, tw
	if _, err := pwf.Run(cfg); err != nil { // Run flushes the writer
		fmt.Println("error:", err)
		return
	}
	events, err := pwf.ReadTraceEvents(&file)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Process 1's CAS at step 8 fails, and it retries.
	for _, e := range events[:21] {
		line, _ := json.Marshal(e)
		fmt.Println(string(line))
	}
	var schedule []int
	for _, e := range events {
		if e.Kind == pwf.EventSched {
			schedule = append(schedule, e.PID)
		}
	}
	fmt.Println(len(schedule), "scheduling decisions: 100 steps and 10% warmup")
	// Output:
	// {"kind":"sched","step":1,"pid":1}
	// {"kind":"begin","step":1,"pid":1}
	// {"kind":"sched","step":2,"pid":1}
	// {"kind":"cas","step":2,"pid":1,"ok":true}
	// {"kind":"complete","step":2,"pid":1,"attempts":1}
	// {"kind":"sched","step":3,"pid":0}
	// {"kind":"begin","step":3,"pid":0}
	// {"kind":"sched","step":4,"pid":1}
	// {"kind":"begin","step":4,"pid":1}
	// {"kind":"sched","step":5,"pid":0}
	// {"kind":"cas","step":5,"pid":0,"ok":true}
	// {"kind":"complete","step":5,"pid":0,"attempts":1}
	// {"kind":"sched","step":6,"pid":0}
	// {"kind":"begin","step":6,"pid":0}
	// {"kind":"sched","step":7,"pid":0}
	// {"kind":"cas","step":7,"pid":0,"ok":true}
	// {"kind":"complete","step":7,"pid":0,"attempts":1}
	// {"kind":"sched","step":8,"pid":1}
	// {"kind":"cas","step":8,"pid":1,"ok":false}
	// {"kind":"sched","step":9,"pid":1}
	// {"kind":"retry","step":9,"pid":1,"attempts":1}
	// 110 scheduling decisions: 100 steps and 10% warmup
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

// The Theorem 3 / Lemma 2 dichotomy as one sweep. A bounded lock-free
// algorithm, SCU(0,1), is wait-free with probability 1 under the
// uniform stochastic scheduler: no process starves. Under an adversary
// that never schedules its victim (θ = 0) the victim starves, which is
// what the stochastic threshold rules out; the adversary cycles
// through the other processes deterministically, and like round-robin
// (E8) that lets one of them win every round. The unbounded
// Algorithm 1 starves all but one process even under the uniform
// scheduler, so bounded progress is necessary (Lemma 2).
func ExampleRunSweep() {
	adversary, err := pwf.ParseScheduler("adversary:0")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	const n, steps = 8, 300000
	jobs := []pwf.SweepJob{
		{Label: "SCU(0,1), uniform", Workload: pwf.SCUWorkload(0, 1),
			Sched: pwf.UniformSpec()},
		{Label: "SCU(0,1), adversary:0", Workload: pwf.SCUWorkload(0, 1),
			Sched: adversary},
		{Label: "Algorithm 1, uniform", Workload: pwf.UnboundedWorkload(0),
			Sched: pwf.UniformSpec()},
	}
	for i := range jobs {
		jobs[i].N, jobs[i].Steps = n, steps
		jobs[i].WarmupFraction = pwf.DefaultWarmupFraction
	}
	results, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range results {
		fmt.Printf("%s: %d of %d starved\n", r.Label, len(r.Starved), n)
	}
	fmt.Println("victim starved:", slices.Contains(results[1].Starved, 0))
	// Output:
	// SCU(0,1), uniform: 0 of 8 starved
	// SCU(0,1), adversary:0: 7 of 8 starved
	// Algorithm 1, uniform: 7 of 8 starved
	// victim starved: true
}
