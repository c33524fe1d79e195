package chains

import (
	"errors"
	"fmt"
	"math"
)

// Sparse stationary analysis of the SCU(0,1) system chain for large
// n. The dense solver is cubic in the ~n²/2 states, capping exact
// results near n = 64; the system chain has at most three successors
// per state, so a sparse fixed-point iteration reaches n in the
// hundreds.
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
// SCU(0, 1) with n processes using the sparse lazy iteration over the
// states and transitions that SCUSystem(n) assembles densely.
func SCUSystemLatencyLarge(n int) (float64, error) {
	if n < 1 || n > maxSCULargeN {
		return 0, fmt.Errorf("%w: n=%d (1..%d)", ErrBadN, n, maxSCULargeN)
	}
	states, ts := scuSystem(n)
	// (n, 0), every process about to read, sorts last.
	w, err := lazyLatency(len(states), len(states)-1, ts, sparseTol, sparseMaxIter)
	if err != nil {
		return 0, fmt.Errorf("n=%d: %w", n, err)
	}
	return w, nil
}

// lazyLatency runs the lazy power iteration v ← (vP + v)/2 of an
// m-state chain from state start until the residual drops below tol,
// and returns 1/μ for the stationary success rate μ.
func lazyLatency(m, start int, ts []transition, tol float64, maxIter int) (float64, error) {
	// Compressed rows: row i's successors are to[rowEnd[i-1]:rowEnd[i]]
	// with probabilities p over the same range, in transition order.
	rowEnd := make([]int, m)
	success := make([]float64, m)
	for _, t := range ts {
		rowEnd[t.from]++
		if t.done != noProc {
			success[t.from] += t.p
		}
	}
	for i := 1; i < m; i++ {
		rowEnd[i] += rowEnd[i-1]
	}
	fill := make([]int, m)
	copy(fill[1:], rowEnd)
	to := make([]int32, len(ts))
	p := make([]float64, len(ts))
	for _, t := range ts {
		to[fill[t.from]], p[fill[t.from]] = int32(t.to), t.p
		fill[t.from]++
	}

	cur := make([]float64, m)
	next := make([]float64, m)
	cur[start] = 1
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		k := 0
		for i, vi := range cur {
			if vi == 0 {
				k = rowEnd[i]
				continue
			}
			half := vi / 2
			next[i] += half
			for ; k < rowEnd[i]; k++ {
				next[to[k]] += half * p[k]
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
				mu += vi * success[i]
			}
			if mu <= 0 {
				return 0, errors.New("chains: zero stationary success rate")
			}
			return 1 / mu, nil
		}
	}
	return 0, fmt.Errorf("%w after %d iterations", ErrNoSparseConvergence, maxIter)
}
