// Quickstart: is a lock-free counter practically wait-free?
//
// This example measures the fetch-and-increment counter of Section 7
// with n processes under the uniform stochastic scheduler, compares
// the simulation against the exact Markov-chain value, and checks the
// paper's two headline predictions:
//
//   - the system completes an operation every Θ(√n) steps, not the
//     worst-case Θ(n) (Theorem 5 / Lemma 12);
//   - every process completes equally often: the individual latency
//     is n times the system latency (Theorem 4).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"os"

	"pwf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		steps = 2_000_000
		seed  = 1
	)
	fmt.Println("lock-free fetch-and-increment under the uniform stochastic scheduler")
	fmt.Printf("%4s %12s %12s %12s %12s %10s\n",
		"n", "W simulated", "W exact", "2*sqrt(n)", "W_i/(n*W)", "fairness")
	for _, n := range []int{2, 4, 8, 16, 32} {
		cfg := pwf.NewRunConfig(pwf.FetchIncWorkload(), n)
		cfg.Steps, cfg.Seed = steps, seed
		lat, err := pwf.Run(cfg)
		if err != nil {
			return err
		}
		exact, err := pwf.ExactFetchIncLatency(n)
		if err != nil {
			return err
		}
		fmt.Printf("%4d %12.3f %12.3f %12.3f %12.4f %10.4f\n",
			n, lat.System, exact,
			2*math.Sqrt(float64(n)),
			lat.Individual/(float64(n)*lat.System),
			lat.Fairness)
	}
	fmt.Println()
	fmt.Println("reading the table:")
	fmt.Println(" * W simulated tracks W exact: the uniform-scheduler model is self-consistent")
	fmt.Println(" * W stays below 2*sqrt(n): completions happen every Θ(√n) steps, far better")
	fmt.Println("   than the worst-case Θ(n) an adversary could force (Lemma 12)")
	fmt.Println(" * W_i/(n*W) ≈ 1 and fairness ≈ 1: every process advances at the same rate —")
	fmt.Println("   the lock-free counter behaves as if it were wait-free (Theorem 4)")
	return nil
}
