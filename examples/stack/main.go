// Stack example: a Treiber stack is in the class SCU, so the paper's
// analysis predicts its behaviour. This example runs the stack two
// ways:
//
//  1. simulated on the discrete-time machine under the uniform
//     stochastic scheduler, with linearizability shadow-checking and
//     per-process latency distribution (the view practitioners know
//     from latency histograms of lock-free stacks);
//  2. natively on goroutines and sync/atomic: the bare stack, whose
//     retry loop issues CAS attempts back to back exactly as the
//     paper's SCU model assumes, measured for its completion rate
//     and CAS failures per operation.
//
// Run with: go run ./examples/stack
package main

import (
	"fmt"
	"os"

	"pwf/internal/machine"
	"pwf/internal/native"
	"pwf/internal/obs"
	"pwf/internal/progress"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stack:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n        = 8
		poolSize = 64
		steps    = 1_000_000
	)

	// --- Simulated Treiber stack ---------------------------------
	st, err := scu.NewStack(n, poolSize, 0)
	if err != nil {
		return err
	}
	mem, err := shmem.New(scu.StackLayout(n, poolSize))
	if err != nil {
		return err
	}
	procs, err := st.Processes()
	if err != nil {
		return err
	}
	u, err := sched.NewUniform(n, rng.New(7))
	if err != nil {
		return err
	}
	sim, err := machine.New(mem, procs, u)
	if err != nil {
		return err
	}
	var collector progress.Collector
	sim.SetCompletionHook(collector.Observe)
	if err := sim.Run(steps); err != nil {
		return err
	}
	if st.Err() != nil {
		return st.Err()
	}

	fmt.Printf("simulated Treiber stack: %d processes, %d steps\n", n, steps)
	fmt.Printf("  pushes=%d pops=%d empty-pops=%d depth=%d\n",
		st.Pushes(), st.Pops(), st.EmptyPops(), st.Depth())
	fmt.Printf("  linearization violations: %d (shadow-checked at every CAS)\n", st.Violations())
	if w, err := sim.SystemLatency(); err == nil {
		fmt.Printf("  system latency:  %.2f steps/op\n", w)
	}
	if wi, err := sim.MeanIndividualLatency(); err == nil {
		fmt.Printf("  individual latency: %.2f steps/op (n x system = wait-free-like fairness)\n", wi)
	}

	// Latency distribution: the practitioner's view of "practically
	// wait-free" — the tail of per-process completion gaps is short.
	trace, err := collector.Trace(n, sim.Steps())
	if err != nil {
		return err
	}
	fmt.Println("  per-process completion-gap quantiles (system steps):")
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		g, err := trace.GapQuantile(q)
		if err != nil {
			return err
		}
		fmt.Printf("    p%-4g %8.0f\n", q*100, g)
	}

	// --- Native Treiber stack ------------------------------------
	fmt.Printf("\nnative Treiber stack (goroutines + sync/atomic), %d workers:\n", n)
	var ops obs.OpStats
	res, err := native.MeasureStackRate(n, 50_000, &ops)
	if err != nil {
		return err
	}
	fmt.Printf("  %d ops in %v, rate %.4f ops/step, casfails/op %.4f\n",
		res.Ops, res.Elapsed.Round(1000), res.Rate(),
		float64(ops.CASFailures.Load())/float64(res.Ops))
	return nil
}
