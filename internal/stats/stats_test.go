package stats

import (
	"math"
	"testing"
	"testing/quick"

	"pwf/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should report zeros")
	}
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Errorf("single observation: mean %v variance %v", s.Mean(), s.Variance())
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("single observation min/max wrong")
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	src := rng.New(7)
	xs := make([]float64, 1000)
	var s Summary
	for i := range xs {
		xs[i] = src.Float64()*100 - 50
		s.Add(xs[i])
	}
	mean, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Mean(), mean, 1e-9) {
		t.Errorf("streaming mean %v != direct mean %v", s.Mean(), mean)
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	direct := ss / float64(len(xs)-1)
	if math.Abs(s.Variance()-direct) > 1e-9*direct {
		t.Errorf("streaming variance %v != direct %v", s.Variance(), direct)
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) returned nil error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty input: nil error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q < 0: nil error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q > 1: nil error")
	}
	// NaN satisfies neither q < 0 nor q > 1, so it needs its own guard:
	// without one it would flow into the order-statistic arithmetic and
	// produce a garbage index instead of an error.
	if _, err := Quantile([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("NaN q: nil error")
	}
}

func TestChiSquareUniformPerfect(t *testing.T) {
	stat, dof, err := ChiSquareUniform([]int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || dof != 3 {
		t.Errorf("stat=%v dof=%d, want 0 and 3", stat, dof)
	}
}

func TestChiSquareUniformSkewed(t *testing.T) {
	stat, _, err := ChiSquareUniform([]int{1000, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if stat <= ChiSquareCritical999(3) {
		t.Errorf("grossly skewed counts passed: stat=%v", stat)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquareUniform([]int{5}); err == nil {
		t.Error("single category: nil error")
	}
	if _, _, err := ChiSquareUniform([]int{0, 0}); err == nil {
		t.Error("all-zero counts: nil error")
	}
	if _, _, err := ChiSquareUniform([]int{1, -1}); err == nil {
		t.Error("negative count: nil error")
	}
}

func TestChiSquareTwoSampleIdentical(t *testing.T) {
	a := []int{100, 200, 300}
	stat, dof, err := ChiSquareTwoSample(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || dof != 2 {
		t.Errorf("stat=%v dof=%d, want 0 and 2", stat, dof)
	}
}

func TestChiSquareTwoSampleDisjoint(t *testing.T) {
	stat, dof, err := ChiSquareTwoSample([]int{1000, 0}, []int{0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if stat <= ChiSquareCritical999(dof) {
		t.Errorf("disjoint samples passed: stat=%v dof=%d", stat, dof)
	}
}

func TestChiSquareTwoSampleDropsEmptyCategories(t *testing.T) {
	// The middle category is empty in both samples: it must not
	// contribute a degree of freedom or divide by zero.
	stat, dof, err := ChiSquareTwoSample([]int{50, 0, 50}, []int{60, 0, 40})
	if err != nil {
		t.Fatal(err)
	}
	if dof != 1 {
		t.Errorf("dof = %d, want 1", dof)
	}
	if math.IsNaN(stat) || math.IsInf(stat, 0) {
		t.Errorf("stat = %v", stat)
	}
}

func TestChiSquareTwoSampleErrors(t *testing.T) {
	if _, _, err := ChiSquareTwoSample([]int{1, 2}, []int{1}); err == nil {
		t.Error("length mismatch: nil error")
	}
	if _, _, err := ChiSquareTwoSample([]int{0, 0}, []int{1, 1}); err == nil {
		t.Error("empty first sample: nil error")
	}
	if _, _, err := ChiSquareTwoSample([]int{1, 1}, []int{0, 0}); err == nil {
		t.Error("empty second sample: nil error")
	}
	if _, _, err := ChiSquareTwoSample([]int{-1, 2}, []int{1, 2}); err == nil {
		t.Error("negative count: nil error")
	}
	if _, _, err := ChiSquareTwoSample([]int{3, 0}, []int{5, 0}); err == nil {
		t.Error("single occupied category: nil error")
	}
}

func TestChiSquareCritical999(t *testing.T) {
	// Reference values: dof=9 → 27.88, dof=1 → 10.83 (within a few %).
	if v := ChiSquareCritical999(9); math.Abs(v-27.88) > 1.0 {
		t.Errorf("critical(9) = %v, want ~27.88", v)
	}
	if v := ChiSquareCritical999(19); math.Abs(v-43.82) > 1.5 {
		t.Errorf("critical(19) = %v, want ~43.82", v)
	}
	if ChiSquareCritical999(0) != 0 {
		t.Error("critical(0) should be 0")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 3, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("got a=%v b=%v r2=%v, want 3, 2, 1", a, b, r2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	a, b, r2, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 4, 1e-9) || !almostEqual(b, 0, 1e-9) || r2 != 1 {
		t.Errorf("constant fit: a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: nil error")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point: nil error")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x: nil error")
	}
}

func TestPowerFitRecoversSqrt(t *testing.T) {
	// y = 4 * x^0.5
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16, 32, 64, 128} {
		xs = append(xs, x)
		ys = append(ys, 4*math.Sqrt(x))
	}
	c, p, r2, err := PowerFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 4, 1e-6) || !almostEqual(p, 0.5, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("got c=%v p=%v r2=%v, want 4, 0.5, 1", c, p, r2)
	}
}

func TestPowerFitRejectsNonPositive(t *testing.T) {
	if _, _, _, err := PowerFit([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Error("zero x: nil error")
	}
	if _, _, _, err := PowerFit([]float64{1, 2}, []float64{1, -2}); err == nil {
		t.Error("negative y: nil error")
	}
}

func TestQuickSummaryMeanBounded(t *testing.T) {
	// Property: the streaming mean always lies within [min, max].
	f := func(raw []float64) bool {
		var s Summary
		any := false
		for _, x := range raw {
			// Near-max-float magnitudes overflow the Welford delta;
			// the property is about ordinary data.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			s.Add(x)
			any = true
		}
		if !any {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			s.Add(x)
		}
		return s.Variance() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	src := rng.New(55)
	f := func(n uint8) bool {
		size := int(n%50) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = src.Float64() * 1000
		}
		q25, err1 := Quantile(xs, 0.25)
		q75, err2 := Quantile(xs, 0.75)
		return err1 == nil && err2 == nil && q25 <= q75
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

func BenchmarkPowerFit(b *testing.B) {
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = 3 * math.Sqrt(xs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := PowerFit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSummaryDegenerateMomentsAreFiniteZero(t *testing.T) {
	// Regression: every moment estimator must return 0 — never NaN —
	// for n < 2, so downstream JSON encoding and report formatting
	// never see NaN.
	check := func(name string, s *Summary) {
		t.Helper()
		for label, got := range map[string]float64{
			"Variance": s.Variance(),
			"StdDev":   s.StdDev(),
			"StdErr":   s.StdErr(),
			"CI95":     s.ConfidenceInterval95(),
		} {
			if math.IsNaN(got) {
				t.Errorf("%s: %s is NaN", name, label)
			}
			if got != 0 {
				t.Errorf("%s: %s = %v, want 0", name, label, got)
			}
		}
	}
	var empty Summary
	check("empty", &empty)
	var single Summary
	single.Add(42)
	check("single", &single)
}

func TestSummaryVarianceClampsNegativeM2(t *testing.T) {
	// Catastrophic cancellation can push m2 fractionally below zero;
	// the clamp keeps StdDev out of NaN territory.
	s := Summary{n: 3, mean: 1e9, m2: -1e-7}
	if v := s.Variance(); v != 0 {
		t.Errorf("Variance = %v, want 0", v)
	}
	if sd := s.StdDev(); math.IsNaN(sd) || sd != 0 {
		t.Errorf("StdDev = %v, want 0", sd)
	}
}
