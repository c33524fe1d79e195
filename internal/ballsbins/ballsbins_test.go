package ballsbins

import (
	"errors"
	"math"
	"testing"

	"pwf/internal/chains"
	"pwf/internal/rng"
	"pwf/internal/stats"
)

func newGame(t *testing.T, n int, seed uint64) *Game {
	t.Helper()
	g, err := New(n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, rng.New(1)); !errors.Is(err, ErrBadN) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := New(3, nil); !errors.Is(err, ErrNilRNG) {
		t.Errorf("nil rng: %v", err)
	}
}

func TestInitialState(t *testing.T) {
	g := newGame(t, 8, 1)
	if g.A() != 8 || g.B() != 0 {
		t.Fatalf("initial a=%d b=%d, want 8, 0", g.A(), g.B())
	}
	if err := g.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBin(t *testing.T) {
	// One bin with one ball: two throws land in it, phase length 2,
	// then reset to one ball again.
	g := newGame(t, 1, 2)
	for i := 0; i < 5; i++ {
		res := g.RunPhase()
		if res.Length != 2 {
			t.Fatalf("phase %d length %d, want 2", i, res.Length)
		}
		if res.AStart != 1 || res.BStart != 0 {
			t.Fatalf("phase %d start (%d,%d), want (1,0)", i, res.AStart, res.BStart)
		}
		if err := g.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPhaseBoundaryInvariant(t *testing.T) {
	g := newGame(t, 16, 3)
	for i := 0; i < 2000; i++ {
		res := g.RunPhase()
		if err := g.CheckInvariant(); err != nil {
			t.Fatalf("phase %d: %v", i, err)
		}
		if res.AStart+res.BStart != 16 {
			t.Fatalf("phase %d: a+b = %d", i, res.AStart+res.BStart)
		}
		if res.Length == 0 {
			t.Fatalf("phase %d: zero length", i)
		}
		if res.Winner < 0 || res.Winner >= 16 {
			t.Fatalf("phase %d: winner %d out of range", i, res.Winner)
		}
	}
	if g.Phases() != 2000 {
		t.Fatalf("Phases = %d, want 2000", g.Phases())
	}
}

func TestThrowsAccumulate(t *testing.T) {
	g := newGame(t, 4, 4)
	results := g.RunPhases(100)
	var total uint64
	for _, r := range results {
		total += r.Length
	}
	if g.Throws() != total {
		t.Fatalf("Throws = %d, sum of lengths = %d", g.Throws(), total)
	}
}

func TestMeanPhaseLengthMatchesExactChain(t *testing.T) {
	// The game evolves exactly as the system Markov chain, so the
	// long-run mean phase length must match the exact system latency
	// W from the chain analysis.
	for _, n := range []int{2, 4, 8, 16, 32} {
		g := newGame(t, n, uint64(100+n))
		// Warm up into stationarity, then measure.
		g.RunPhases(2000)
		var mean stats.Summary
		for _, r := range g.RunPhases(30000) {
			mean.Add(float64(r.Length))
		}
		sys, _, err := chains.SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sys.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(mean.Mean()-w) / w; rel > 0.03 {
			t.Fatalf("n=%d: mean phase %v vs exact W %v (rel %v)", n, mean.Mean(), w, rel)
		}
	}
}

func TestPhaseLengthScalesAsSqrtN(t *testing.T) {
	var ns, ls []float64
	for _, n := range []int{8, 16, 32, 64, 128} {
		g := newGame(t, n, uint64(7+n))
		g.RunPhases(500)
		var mean stats.Summary
		for _, r := range g.RunPhases(5000) {
			mean.Add(float64(r.Length))
		}
		ns = append(ns, float64(n))
		ls = append(ls, mean.Mean())
	}
	_, p, r2, err := stats.PowerFit(ns, ls)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 0.1 {
		t.Fatalf("phase length exponent %v, want ~0.5 (lengths %v)", p, ls)
	}
	if r2 < 0.98 {
		t.Fatalf("power fit R² = %v", r2)
	}
}

func TestLemma8BoundHolds(t *testing.T) {
	// The empirical mean phase length conditioned on the starting
	// (a, b) must respect the Lemma 8 bound with α = 4.
	const n = 64
	g := newGame(t, n, 11)
	g.RunPhases(500)
	type agg struct {
		sum   float64
		count int
		a, b  int
	}
	byStart := make(map[[2]int]*agg)
	for _, r := range g.RunPhases(20000) {
		key := [2]int{r.AStart, r.BStart}
		e := byStart[key]
		if e == nil {
			e = &agg{a: r.AStart, b: r.BStart}
			byStart[key] = e
		}
		e.sum += float64(r.Length)
		e.count++
	}
	for key, e := range byStart {
		if e.count < 50 {
			continue // too noisy to compare
		}
		bound, err := PhaseLengthBound(e.a, e.b, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		mean := e.sum / float64(e.count)
		if mean > bound {
			t.Fatalf("start %v: mean phase %v exceeds Lemma 8 bound %v", key, mean, bound)
		}
	}
}

func TestLemma9RangeDynamics(t *testing.T) {
	// From ranges 1-2 the game should essentially never enter range 3
	// (probability ~n^-α), and range-3 visits should be rare overall.
	const n = 64
	g := newGame(t, n, 13)
	g.RunPhases(500)
	results := g.RunPhases(20000)
	range3 := 0
	transitions12to3 := 0
	prevRange := 0
	for i, r := range results {
		rg, err := RangeOf(r.AStart, n, DefaultRangeC)
		if err != nil {
			t.Fatal(err)
		}
		if rg == 3 {
			range3++
			if i > 0 && prevRange != 3 {
				transitions12to3++
			}
		}
		prevRange = rg
	}
	if frac := float64(range3) / float64(len(results)); frac > 0.01 {
		t.Fatalf("range-3 fraction %v, want < 1%%", frac)
	}
	if transitions12to3 > 5 {
		t.Fatalf("saw %d transitions from ranges 1-2 into range 3", transitions12to3)
	}
}

func TestRangeOf(t *testing.T) {
	tests := []struct {
		a, n int
		want int
	}{
		{100, 100, 1},
		{34, 100, 1},
		{33, 100, 2},
		{10, 100, 2},
		{9, 100, 3},
		{0, 100, 3},
	}
	for _, tt := range tests {
		got, err := RangeOf(tt.a, tt.n, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("RangeOf(%d, %d) = %d, want %d", tt.a, tt.n, got, tt.want)
		}
	}
	if _, err := RangeOf(-1, 10, 10); err == nil {
		t.Error("a=-1: nil error")
	}
	if _, err := RangeOf(5, 10, 2); err == nil {
		t.Error("c=2: nil error")
	}
}

func TestPhaseLengthBound(t *testing.T) {
	// a = 64, b = 0, n = 64, α = 4: bound = 2·4·64/8 = 64.
	got, err := PhaseLengthBound(64, 0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-64) > 1e-9 {
		t.Fatalf("bound = %v, want 64", got)
	}
	// a = 0, b = 64: bound = 3·4·64/4 = 192.
	got, err = PhaseLengthBound(0, 64, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-192) > 1e-9 {
		t.Fatalf("bound = %v, want 192", got)
	}
	if _, err := PhaseLengthBound(50, 50, 64, 4); err == nil {
		t.Error("a+b > n: nil error")
	}
	if _, err := PhaseLengthBound(1, 1, 64, 3); err == nil {
		t.Error("alpha < 4: nil error")
	}
}

func TestWinnersRoughlyUniform(t *testing.T) {
	// In stationarity no bin should dominate the wins.
	const n = 10
	g := newGame(t, n, 17)
	g.RunPhases(500)
	counts := make([]int, n)
	for _, r := range g.RunPhases(30000) {
		counts[r.Winner]++
	}
	stat, dof, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(dof); stat > crit {
		t.Fatalf("winner distribution skewed: chi2 %v > %v (%v)", stat, crit, counts)
	}
}

func BenchmarkRunPhase(b *testing.B) {
	g, err := New(64, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RunPhase()
	}
}
