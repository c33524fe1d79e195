package markov

import (
	"errors"
	"fmt"
)

// Lifting relates a "big" chain M' to a "small" chain M through a
// surjection f from big states to small states: M' is a lifting of M
// when the ergodic flows satisfy, for all small states i, j,
//
//	Q_ij = Σ_{x ∈ f⁻¹(i), y ∈ f⁻¹(j)} Q'_xy
//
// (Section 3, following Chen–Lovász–Pak and Hayes–Sinclair). An
// immediate consequence (Lemma 1) is π(v) = Σ_{x ∈ f⁻¹(v)} π'(x).
//
// LiftingReport carries the numerical evidence produced by
// VerifyLifting.
type LiftingReport struct {
	// MaxFlowError is the largest absolute violation of the flow
	// equations across all (i, j).
	MaxFlowError float64
	// MaxMarginalError is the largest absolute violation of the
	// Lemma 1 marginal equations across small states.
	MaxMarginalError float64
	// BigStationary and SmallStationary are the computed stationary
	// distributions.
	BigStationary   []float64
	SmallStationary []float64
}

// Lifting verification errors.
var (
	ErrBadMapping    = errors.New("markov: lifting map is invalid")
	ErrNotSurjective = errors.New("markov: lifting map is not surjective")
)

// VerifyLifting checks that big is a lifting of small under the state
// map f (f[x] is the small state of big state x). Both chains must be
// irreducible; stationary distributions are computed by direct solve.
// The report carries the maximal violations; the caller decides the
// tolerance.
func VerifyLifting(big, small *Chain, f []int) (*LiftingReport, error) {
	if big == nil || small == nil {
		return nil, errors.New("markov: nil chain")
	}
	if len(f) != big.N() {
		return nil, fmt.Errorf("%w: %d entries for %d big states", ErrBadMapping, len(f), big.N())
	}
	covered := make([]bool, small.N())
	for x, v := range f {
		if v < 0 || v >= small.N() {
			return nil, fmt.Errorf("%w: f[%d] = %d of %d", ErrBadMapping, x, v, small.N())
		}
		covered[v] = true
	}
	for v, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("%w: small state %d has empty preimage", ErrNotSurjective, v)
		}
	}

	piBig, err := big.StationarySolve()
	if err != nil {
		return nil, fmt.Errorf("big chain: %w", err)
	}
	piSmall, err := small.StationarySolve()
	if err != nil {
		return nil, fmt.Errorf("small chain: %w", err)
	}

	// Aggregate the big chain's ergodic flow through f.
	m := small.N()
	agg := make([][]float64, m)
	for i := range agg {
		agg[i] = make([]float64, m)
	}
	for x := 0; x < big.N(); x++ {
		if piBig[x] == 0 {
			continue
		}
		fx := f[x]
		col, p := big.Row(x)
		for k, y := range col {
			agg[fx][f[y]] += piBig[x] * p[k]
		}
	}

	report := &LiftingReport{
		BigStationary:   piBig,
		SmallStationary: piSmall,
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			want := piSmall[i] * small.P(i, j)
			if d := abs(agg[i][j] - want); d > report.MaxFlowError {
				report.MaxFlowError = d
			}
		}
	}

	// Lemma 1 marginals.
	marginal := make([]float64, m)
	for x, v := range f {
		marginal[v] += piBig[x]
	}
	for v := 0; v < m; v++ {
		if d := abs(marginal[v] - piSmall[v]); d > report.MaxMarginalError {
			report.MaxMarginalError = d
		}
	}
	return report, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
