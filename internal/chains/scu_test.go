package chains

import (
	"errors"
	"math"
	"testing"

	"pwf/internal/markov"
)

func TestSCUSystemValidation(t *testing.T) {
	if _, _, err := SCUSystem(0); !errors.Is(err, ErrBadN) {
		t.Errorf("n=0: %v", err)
	}
	if _, _, err := SCUSystem(maxSCUSystemN + 1); !errors.Is(err, ErrBadN) {
		t.Errorf("n too large: %v", err)
	}
}

func TestSCUSystemStateCount(t *testing.T) {
	// States (a, b) with a + b <= n, minus (0, n):
	// (n+1)(n+2)/2 - 1 states.
	for n := 1; n <= 10; n++ {
		_, states, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		want := (n+1)*(n+2)/2 - 1
		if len(states) != want {
			t.Fatalf("n=%d: %d states, want %d", n, len(states), want)
		}
		for _, st := range states {
			if st.A == 0 && st.B == n {
				t.Fatalf("n=%d: excluded state (0,%d) present", n, n)
			}
		}
	}
}

func TestSCUSystemClosedForm(t *testing.T) {
	// Section 6.1.1 in closed form, independent of any builder: with
	// c = n − a − b, state (a, b) moves to (a−1, b) with probability
	// a/n, to (a+1, b−1) with b/n and to (a+1, n−a−1) with c/n, and
	// only the last move completes an operation.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 64} {
		a, states, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		index := make(map[SCUSystemState]int, len(states))
		for i, st := range states {
			index[st] = i
		}
		fn := float64(n)
		for i, st := range states {
			c := n - st.A - st.B
			want := make(map[int]float64)
			add := func(k int, to SCUSystemState) {
				if k == 0 {
					return
				}
				j, ok := index[to]
				if !ok {
					t.Fatalf("n=%d: successor %v of %v missing", n, to, st)
				}
				want[j] = float64(k) / fn
			}
			add(st.A, SCUSystemState{A: st.A - 1, B: st.B})
			add(st.B, SCUSystemState{A: st.A + 1, B: st.B - 1})
			add(c, SCUSystemState{A: st.A + 1, B: n - st.A - 1})
			for j := range states {
				if got := a.Chain.P(i, j); got != want[j] {
					t.Fatalf("n=%d: P(%v, %v) = %v, want %v", n, st, states[j], got, want[j])
				}
			}
			if got := a.Success[i]; got != float64(c)/fn {
				t.Fatalf("n=%d: success at %v = %v, want %v", n, st, got, float64(c)/fn)
			}
		}
	}
}

func TestSCUSystemIrreducibleAndPeriodTwo(t *testing.T) {
	// The scan-validate chain alternates read-like and CAS-like
	// pending counts, so it is irreducible with period 2 (see the
	// package comment); stationary analysis is still valid.
	for n := 2; n <= 8; n++ {
		a, _, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Chain.Irreducible() {
			t.Fatalf("n=%d: system chain not irreducible", n)
		}
		period, err := a.Chain.Period()
		if err != nil {
			t.Fatal(err)
		}
		if period != 2 {
			t.Fatalf("n=%d: period %d, want 2", n, period)
		}
	}
}

func TestSCUSystemSingleProcess(t *testing.T) {
	// n=1: states (0,0) and (1,0); the process alternates read and
	// successful CAS, so W = 2.
	a, _, err := SCUSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-2) > 1e-9 {
		t.Fatalf("W = %v, want 2", w)
	}
}

func TestSCUSystemLatencyGrowsAsSqrtN(t *testing.T) {
	// Theorem 5: W = O(√n). Fit W against n^p and check p ≈ 0.5.
	var (
		ns []float64
		ws []float64
	)
	for n := 4; n <= 64; n *= 2 {
		a, _, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		w, err := a.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, float64(n))
		ws = append(ws, w)
	}
	// Log-log slope between successive points should approach 1/2.
	last := len(ns) - 1
	slope := math.Log(ws[last]/ws[last-1]) / math.Log(ns[last]/ns[last-1])
	if math.Abs(slope-0.5) > 0.12 {
		t.Fatalf("tail log-log slope = %v, want ~0.5 (W values %v)", slope, ws)
	}
	// And the ratio W/√n should be bounded by a small constant.
	for i, w := range ws {
		ratio := w / math.Sqrt(ns[i])
		if ratio > 4 || ratio < 0.5 {
			t.Fatalf("n=%v: W/√n = %v out of [0.5, 4]", ns[i], ratio)
		}
	}
}

// TestSCUSystemN128PinnedBits pins the direct solve at the cap, where
// the dense oracle of internal/markov would need about 560 MB. It
// agrees with the iteration's W in TestSparseLargeNPinnedBits to seven
// significant digits.
func TestSCUSystemN128PinnedBits(t *testing.T) {
	const want = 0x4034af8b30e1db01 // 20.685717635288714
	a, _, err := SCUSystem(128)
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(w); got != want {
		t.Fatalf("W = %v (bits %#x), want %v (bits %#x)", w, got, math.Float64frombits(want), uint64(want))
	}
}

func TestSCUIndividualValidation(t *testing.T) {
	if _, _, err := SCUIndividual(0); !errors.Is(err, ErrBadN) {
		t.Errorf("n=0: %v", err)
	}
	if _, _, err := SCUIndividual(maxSCUIndividualN + 1); !errors.Is(err, ErrBadN) {
		t.Errorf("n too large: %v", err)
	}
}

func TestSCUIndividualStateCount(t *testing.T) {
	for n := 1; n <= 6; n++ {
		a, _, err := SCUIndividual(n)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		for i := 0; i < n; i++ {
			want *= 3
		}
		want--
		if a.Chain.N() != want {
			t.Fatalf("n=%d: %d states, want 3^n-1 = %d", n, a.Chain.N(), want)
		}
	}
}

func TestSCUIndividualIrreducible(t *testing.T) {
	for n := 2; n <= 5; n++ {
		a, _, err := SCUIndividual(n)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Chain.Irreducible() {
			t.Fatalf("n=%d: individual chain not irreducible", n)
		}
	}
}

func TestSCULiftingLemma5(t *testing.T) {
	// Lemma 5: the system chain is a lifting of the individual chain.
	for n := 2; n <= 5; n++ {
		ind, lift, err := SCUIndividual(n)
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		report, err := markov.VerifyLifting(ind.Chain, sys.Chain, lift)
		if err != nil {
			t.Fatal(err)
		}
		if report.MaxFlowError > 1e-9 {
			t.Fatalf("n=%d: lifting flow error %v", n, report.MaxFlowError)
		}
		if report.MaxMarginalError > 1e-9 {
			t.Fatalf("n=%d: Lemma 1 marginal error %v", n, report.MaxMarginalError)
		}
	}
}

func TestSCUIndividualLatencyIsNTimesSystemLemma7(t *testing.T) {
	// Lemma 7: W_i = n · W for every process i.
	for n := 2; n <= 5; n++ {
		ind, _, err := SCUIndividual(n)
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sys.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		wInd, err := ind.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w-wInd) > 1e-9 {
			t.Fatalf("n=%d: system latency differs between chains: %v vs %v", n, w, wInd)
		}
		for pid := 0; pid < n; pid++ {
			wi, err := ind.IndividualLatency(pid)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(wi-float64(n)*w) > 1e-6 {
				t.Fatalf("n=%d pid=%d: W_i = %v, want n·W = %v", n, pid, wi, float64(n)*w)
			}
		}
	}
}

func TestSCUIndividualSymmetryLemma6(t *testing.T) {
	// Lemma 6: states with the same (a, b) signature have equal
	// stationary probability.
	const n = 3
	ind, lift, err := SCUIndividual(n)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := ind.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	byClass := make(map[int][]float64)
	for x, cls := range lift {
		byClass[cls] = append(byClass[cls], pi[x])
	}
	for cls, vals := range byClass {
		for _, v := range vals {
			if math.Abs(v-vals[0]) > 1e-10 {
				t.Fatalf("class %d: asymmetric stationary masses %v", cls, vals)
			}
		}
	}
}

func TestSCUSystemSuccessRateMatchesTotalFlow(t *testing.T) {
	// μ computed from Success must equal the stationary inflow into
	// completions; sanity-check against a manual stationary pass.
	a, states, err := SCUSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := a.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	var mu float64
	for i, st := range states {
		c := 4 - st.A - st.B
		mu += pi[i] * float64(c) / 4
	}
	got, err := a.SuccessRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-mu) > 1e-12 {
		t.Fatalf("SuccessRate = %v, manual = %v", got, mu)
	}
}
