package chains

import (
	"errors"
	"fmt"
	"math"
)

// Iterative stationary analysis of the SCU(0,1) system chain for
// large n. The direct solve of StationarySolve stops at maxSCUSystemN
// (about 15 ms at n = 64, 0.2 s at n = 128, 3 s at n = 256 with the
// cap lifted); the system chain has at most three successors per
// state, so a fixed-point iteration over its compressed rows reaches n
// in the hundreds. E4 and E11 take their exact values from the
// iteration from n = 128 on, and tests pin them.
//
// The chain is periodic (period 2), so plain power iteration
// oscillates; the iteration therefore uses the *lazy* chain
// (P + I)/2, which is aperiodic and has the same stationary
// distribution.

// ErrNoSparseConvergence is returned when the lazy iteration fails to
// reach the tolerance within its iteration budget.
var ErrNoSparseConvergence = errors.New("chains: sparse stationary iteration did not converge")

// The sparse iteration's bounds: the largest n, the stationarity
// tolerance (max-norm residual of πP − π) and the iteration budget.
const (
	maxSCULargeN  = 512
	sparseTol     = 1e-10
	sparseMaxIter = 5000000
)

// SCUSystemLatencyLarge computes the exact system latency W of
// SCU(0, 1) with n processes using the lazy iteration over the chain
// that SCUSystem(n) assembles.
func SCUSystemLatencyLarge(n int) (float64, error) {
	if n < 1 || n > maxSCULargeN {
		return 0, fmt.Errorf("%w: n=%d (1..%d)", ErrBadN, n, maxSCULargeN)
	}
	states, ts := scuSystem(n)
	a, err := assemble("scu system", len(states), 0, ts)
	if err != nil {
		return 0, err
	}
	// (n, 0), every process about to read, sorts last.
	w, err := lazyLatency(a, len(states)-1, sparseTol, sparseMaxIter)
	if err != nil {
		return 0, fmt.Errorf("n=%d: %w", n, err)
	}
	return w, nil
}

// lazyLatency runs the lazy power iteration v ← (vP + v)/2 of a's
// chain from state start until the residual drops below tol, and
// returns 1/μ for the stationary success rate μ.
func lazyLatency(a *Analysis, start int, tol float64, maxIter int) (float64, error) {
	chain := a.Chain
	m := chain.N()
	cur := make([]float64, m)
	next := make([]float64, m)
	cur[start] = 1
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for i, vi := range cur {
			if vi == 0 {
				continue
			}
			half := vi / 2
			next[i] += half
			to, p := chain.Row(i)
			for k, j := range to {
				next[j] += half * p[k]
			}
		}
		// Residual of the ORIGINAL chain: ‖vP − v‖∞ = 2·‖vLazy − v‖∞.
		var diff float64
		for i := range next {
			if d := math.Abs(next[i] - cur[i]); d > diff {
				diff = d
			}
		}
		cur, next = next, cur
		if 2*diff < tol {
			var mu float64
			for i, vi := range cur {
				mu += vi * a.Success[i]
			}
			if mu <= 0 {
				return 0, errors.New("chains: zero stationary success rate")
			}
			return 1 / mu, nil
		}
	}
	return 0, fmt.Errorf("%w after %d iterations", ErrNoSparseConvergence, maxIter)
}
