package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pwf/internal/rng"
)

func mustChain(t *testing.T, p [][]float64) *Chain {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// twoState returns the classic two-state chain with flip probabilities
// a (0→1) and b (1→0); its stationary distribution is
// [b/(a+b), a/(a+b)].
func twoState(t *testing.T, a, b float64) *Chain {
	t.Helper()
	return mustChain(t, [][]float64{
		{1 - a, a},
		{b, 1 - b},
	})
}

// randomErgodic builds a random dense ergodic chain with n states.
func randomErgodic(n int, src *rng.Source) [][]float64 {
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		var sum float64
		for j := range p[i] {
			v := src.Float64() + 0.01 // strictly positive → ergodic
			p[i][j] = v
			sum += v
		}
		for j := range p[i] {
			p[i][j] /= sum
		}
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty: nil error")
	}
	if _, err := New([][]float64{{0.5}}); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("bad row sum: %v", err)
	}
	if _, err := New([][]float64{{1, 0}}); err == nil {
		t.Error("non-square: nil error")
	}
	if _, err := New([][]float64{{1.5, -0.5}, {0, 1}}); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("negative entry: %v", err)
	}
	if _, err := New([][]float64{{math.NaN(), 1}, {0, 1}}); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("NaN entry: %v", err)
	}
}

func TestNewCopiesMatrix(t *testing.T) {
	p := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	c := mustChain(t, p)
	p[0][0] = 99
	if c.P(0, 0) != 0.5 {
		t.Fatal("New did not copy the matrix")
	}
}

func TestIrreducible(t *testing.T) {
	if !twoState(t, 0.3, 0.7).Irreducible() {
		t.Error("two-state flip chain should be irreducible")
	}
	// Absorbing state 1: not irreducible.
	c := mustChain(t, [][]float64{
		{0.5, 0.5},
		{0, 1},
	})
	if c.Irreducible() {
		t.Error("chain with absorbing state should not be irreducible")
	}
	// Single state.
	if !mustChain(t, [][]float64{{1}}).Irreducible() {
		t.Error("single-state chain should be irreducible")
	}
}

func TestPeriod(t *testing.T) {
	// Deterministic 2-cycle has period 2.
	c := mustChain(t, [][]float64{
		{0, 1},
		{1, 0},
	})
	period, err := c.Period()
	if err != nil {
		t.Fatal(err)
	}
	if period != 2 {
		t.Fatalf("period = %d, want 2", period)
	}
	if c.Ergodic() {
		t.Error("2-cycle should not be ergodic")
	}
	// A self-loop makes it aperiodic.
	c2 := twoState(t, 0.5, 1)
	period, err = c2.Period()
	if err != nil {
		t.Fatal(err)
	}
	if period != 1 {
		t.Fatalf("period = %d, want 1", period)
	}
	if !c2.Ergodic() {
		t.Error("chain with self-loop should be ergodic")
	}
	// Deterministic 3-cycle has period 3.
	c3 := mustChain(t, [][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	})
	period, err = c3.Period()
	if err != nil {
		t.Fatal(err)
	}
	if period != 3 {
		t.Fatalf("period = %d, want 3", period)
	}
}

func TestPeriodRequiresIrreducible(t *testing.T) {
	c := mustChain(t, [][]float64{
		{0.5, 0.5},
		{0, 1},
	})
	if _, err := c.Period(); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("period of reducible chain: %v", err)
	}
}

func TestStationaryTwoState(t *testing.T) {
	const (
		a = 0.2
		b = 0.3
	)
	c := twoState(t, a, b)
	want := []float64{b / (a + b), a / (a + b)}

	solve, err := c.StationarySolve()
	if err != nil {
		t.Fatal(err)
	}
	power, err := c.StationaryPower(1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(solve[i]-want[i]) > 1e-10 {
			t.Errorf("solve π[%d] = %v, want %v", i, solve[i], want[i])
		}
		if math.Abs(power[i]-want[i]) > 1e-9 {
			t.Errorf("power π[%d] = %v, want %v", i, power[i], want[i])
		}
	}
}

func TestStationarySolversAgreeOnRandomChains(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.Intn(15)
		c := mustChain(t, randomErgodic(n, src))
		solve, err := c.StationarySolve()
		if err != nil {
			t.Fatal(err)
		}
		power, err := c.StationaryPower(1e-12, 1000000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range solve {
			if math.Abs(solve[i]-power[i]) > 1e-8 {
				t.Fatalf("trial %d, state %d: solve %v vs power %v", trial, i, solve[i], power[i])
			}
		}
		res, err := c.Residual(solve)
		if err != nil {
			t.Fatal(err)
		}
		if res > 1e-10 {
			t.Fatalf("trial %d: residual %v", trial, res)
		}
	}
}

func TestStationarySolveRequiresIrreducible(t *testing.T) {
	c := mustChain(t, [][]float64{
		{0.5, 0.5},
		{0, 1},
	})
	if _, err := c.StationarySolve(); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("reducible solve: %v", err)
	}
}

func TestStationaryPowerArgs(t *testing.T) {
	c := twoState(t, 0.5, 0.5)
	if _, err := c.StationaryPower(0, 10); err == nil {
		t.Error("tol=0: nil error")
	}
	if _, err := c.StationaryPower(1e-12, 0); err == nil {
		t.Error("maxIter=0: nil error")
	}
}

func TestStationaryPowerPeriodicFails(t *testing.T) {
	// Power iteration from uniform actually fixes the 2-cycle's
	// stationary vector immediately; use a 3-state periodic chain with
	// a non-uniform stationary-defying start? The uniform start is
	// stationary for any doubly-stochastic chain, so use a periodic
	// chain that is not doubly stochastic... every deterministic
	// permutation chain is doubly stochastic. Instead verify that the
	// solver still yields a residual-0 vector and that Ergodic() is
	// the authoritative check.
	c := mustChain(t, [][]float64{
		{0, 1},
		{1, 0},
	})
	if c.Ergodic() {
		t.Fatal("2-cycle must not be ergodic")
	}
	pi, err := c.StationarySolve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.5) > 1e-10 || math.Abs(pi[1]-0.5) > 1e-10 {
		t.Fatalf("2-cycle stationary = %v, want [0.5 0.5]", pi)
	}
}

func TestStepDistribution(t *testing.T) {
	c := twoState(t, 0.5, 0.25)
	next, err := c.StepDistribution([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(next[0]-0.5) > 1e-12 || math.Abs(next[1]-0.5) > 1e-12 {
		t.Fatalf("step from [1 0] = %v", next)
	}
	if _, err := c.StepDistribution([]float64{1}); err == nil {
		t.Error("dimension mismatch: nil error")
	}
}

func TestHittingAndReturnTimes(t *testing.T) {
	// For the two-state chain, E[T_01] = 1/a and E[T_00] = 1/π_0.
	const (
		a = 0.25
		b = 0.5
	)
	c := twoState(t, a, b)
	h, err := c.HittingTimes(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[0]-1/a) > 1e-9 {
		t.Errorf("E[T_01] = %v, want %v", h[0], 1/a)
	}
	if h[1] != 0 {
		t.Errorf("E[T_11] hitting self = %v, want 0", h[1])
	}

	pi, err := c.StationarySolve()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		ret, err := c.ReturnTime(j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ret-1/pi[j]) > 1e-9 {
			t.Errorf("ReturnTime(%d) = %v, want 1/π = %v (Theorem 1)", j, ret, 1/pi[j])
		}
	}
}

func TestReturnTimeMatchesTheorem1OnRandomChains(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		n := 2 + src.Intn(10)
		c := mustChain(t, randomErgodic(n, src))
		pi, err := c.StationarySolve()
		if err != nil {
			t.Fatal(err)
		}
		j := src.Intn(n)
		ret, err := c.ReturnTime(j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ret*pi[j]-1) > 1e-7 {
			t.Fatalf("trial %d: ReturnTime(%d)·π = %v, want 1", trial, j, ret*pi[j])
		}
	}
}

func TestHittingTimesValidation(t *testing.T) {
	c := twoState(t, 0.5, 0.5)
	if _, err := c.HittingTimes(-1); !errors.Is(err, ErrBadState) {
		t.Errorf("target -1: %v", err)
	}
	if _, err := c.HittingTimes(5); !errors.Is(err, ErrBadState) {
		t.Errorf("target 5: %v", err)
	}
}

func TestQuickStationaryProperties(t *testing.T) {
	src := rng.New(99)
	f := func(nRaw uint8) bool {
		n := int(nRaw%12) + 2
		c, err := New(randomErgodic(n, src))
		if err != nil {
			return false
		}
		pi, err := c.StationarySolve()
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pi {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		res, err := c.Residual(pi)
		return err == nil && res < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStationarySolve(b *testing.B) {
	src := rng.New(1)
	c, err := New(randomErgodic(50, src))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.StationarySolve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStationaryPower(b *testing.B) {
	src := rng.New(1)
	c, err := New(randomErgodic(50, src))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.StationaryPower(1e-10, 100000); err != nil {
			b.Fatal(err)
		}
	}
}
