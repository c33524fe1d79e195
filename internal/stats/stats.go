// Package stats provides the small statistics substrate used by the
// experiment harness: streaming moments, quantiles, chi-square
// uniformity tests, least-squares fits (including the power-law fit
// used to test the √n latency exponent), and normal confidence
// intervals.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by estimators that need at least one sample.
var ErrNoData = errors.New("stats: no data")

// Summary holds streaming sample moments, accumulated with Welford's
// algorithm for numerical stability. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations seen so far.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 if no data).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 if no data).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if no data).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.m2 / float64(s.n-1)
	if v < 0 {
		// Welford keeps m2 non-negative analytically, but catastrophic
		// cancellation can drive it fractionally below zero; clamping
		// here keeps StdDev from returning NaN.
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// ConfidenceInterval95 returns the half-width of the 95% normal
// confidence interval for the mean.
func (s *Summary) ConfidenceInterval95() float64 {
	return 1.96 * s.StdErr()
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified. The
// edges mirror obs.HistogramSnapshot.Quantile: q = 0 returns the
// minimum, q = 1 the maximum, empty input returns ErrNoData, and a
// NaN or out-of-range q is rejected.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// ChiSquareUniform computes the chi-square statistic of counts against
// the uniform distribution, along with the degrees of freedom
// (len(counts) - 1). The total count must be positive.
func ChiSquareUniform(counts []int) (stat float64, dof int, err error) {
	if len(counts) < 2 {
		return 0, 0, errors.New("stats: need at least two categories")
	}
	var total int
	for _, c := range counts {
		if c < 0 {
			return 0, 0, errors.New("stats: negative count")
		}
		total += c
	}
	if total == 0 {
		return 0, 0, ErrNoData
	}
	expected := float64(total) / float64(len(counts))
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat, len(counts) - 1, nil
}

// ChiSquareCritical999 returns an upper bound on the chi-square
// critical value at significance 0.001 for the given degrees of
// freedom, using the Wilson-Hilferty approximation. Tests that stay
// below this value are consistent with the null hypothesis at p=0.001.
func ChiSquareCritical999(dof int) float64 {
	if dof <= 0 {
		return 0
	}
	// Wilson-Hilferty: chi2_p ≈ dof * (1 - 2/(9 dof) + z_p sqrt(2/(9 dof)))^3
	// with z_0.999 = 3.0902.
	const z = 3.0902
	k := float64(dof)
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * t * t * t
}

// ChiSquareTwoSample computes the chi-square homogeneity statistic
// for two independent samples of categorical counts over the same
// categories: the null hypothesis is that both samples draw from the
// same (unknown) distribution. Categories empty in both samples are
// dropped; the degrees of freedom are the number of remaining
// categories minus one. Both samples must have positive totals and at
// least two categories must be occupied.
//
// The sched package uses this to verify its constant-time samplers
// (alias tables, Fenwick draws) against the naive O(n) reference
// samplers without needing the true distribution in closed form.
func ChiSquareTwoSample(a, b []int) (stat float64, dof int, err error) {
	if len(a) != len(b) {
		return 0, 0, errors.New("stats: sample length mismatch")
	}
	var totalA, totalB int
	occupied := 0
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return 0, 0, errors.New("stats: negative count")
		}
		totalA += a[i]
		totalB += b[i]
		if a[i]+b[i] > 0 {
			occupied++
		}
	}
	if totalA == 0 || totalB == 0 {
		return 0, 0, ErrNoData
	}
	if occupied < 2 {
		return 0, 0, errors.New("stats: need at least two occupied categories")
	}
	grand := float64(totalA + totalB)
	fracA := float64(totalA) / grand
	fracB := float64(totalB) / grand
	for i := range a {
		col := float64(a[i] + b[i])
		if col == 0 {
			continue
		}
		ea := col * fracA
		eb := col * fracB
		da := float64(a[i]) - ea
		db := float64(b[i]) - eb
		stat += da*da/ea + db*db/eb
	}
	return stat, occupied - 1, nil
}

// LinearFit fits y = a + b*x by ordinary least squares and returns the
// intercept a, slope b, and the coefficient of determination R².
func LinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("stats: need at least two points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, errors.New("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n

	// R² = 1 - SS_res / SS_tot.
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		r := ys[i] - (a + b*xs[i])
		ssRes += r * r
	}
	if ssTot == 0 {
		// All y identical: fit is exact iff residuals vanish.
		if ssRes == 0 {
			return a, b, 1, nil
		}
		return a, b, 0, nil
	}
	return a, b, 1 - ssRes/ssTot, nil
}

// PowerFit fits y = c * x^p by linear regression in log-log space and
// returns the coefficient c, the exponent p, and the log-space R².
// All xs and ys must be strictly positive.
func PowerFit(xs, ys []float64) (c, p, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: length mismatch")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, 0, errors.New("stats: power fit requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	a, b, r2, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return math.Exp(a), b, r2, nil
}
