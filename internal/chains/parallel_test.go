package chains

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"pwf/internal/markov"
)

func TestParallelValidation(t *testing.T) {
	if _, _, err := ParallelSystem(0, 3); !errors.Is(err, ErrBadParams) {
		t.Errorf("n=0: %v", err)
	}
	if _, _, err := ParallelSystem(3, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("q=0: %v", err)
	}
	if _, _, err := ParallelIndividual(0, 3); !errors.Is(err, ErrBadParams) {
		t.Errorf("individual n=0: %v", err)
	}
	if _, _, err := ParallelIndividual(20, 10); !errors.Is(err, ErrBadN) {
		t.Errorf("too many states: %v", err)
	}
}

func TestParallelSystemStateCount(t *testing.T) {
	// Compositions of n into q parts: C(n+q-1, q-1).
	tests := []struct {
		n, q, want int
	}{
		{1, 1, 1},
		{3, 2, 4},
		{4, 3, 15},
		{5, 4, 56},
	}
	for _, tt := range tests {
		_, states, err := ParallelSystem(tt.n, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(states) != tt.want {
			t.Fatalf("n=%d q=%d: %d states, want %d", tt.n, tt.q, len(states), tt.want)
		}
	}
}

func TestParallelIndividualUniformStationary(t *testing.T) {
	// Section 6.2: M_I is doubly stochastic (in/out degree n with
	// uniform 1/n transitions), so its stationary distribution is
	// uniform.
	const (
		n = 3
		q = 3
	)
	ind, _, err := ParallelIndividual(n, q)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := ind.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(len(pi))
	for i, v := range pi {
		if math.Abs(v-want) > 1e-10 {
			t.Fatalf("π[%d] = %v, want uniform %v", i, v, want)
		}
	}
}

func TestParallelLatenciesLemma11(t *testing.T) {
	// Lemma 11: W = q and W_i = n·q, exactly.
	for _, tt := range []struct{ n, q int }{
		{2, 2}, {3, 3}, {4, 2}, {2, 5}, {5, 2},
	} {
		ind, _, err := ParallelIndividual(tt.n, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := ParallelSystem(tt.n, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sys.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w-float64(tt.q)) > 1e-9 {
			t.Fatalf("n=%d q=%d: W = %v, want q", tt.n, tt.q, w)
		}
		for pid := 0; pid < tt.n; pid++ {
			wi, err := ind.IndividualLatency(pid)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(wi-float64(tt.n*tt.q)) > 1e-8 {
				t.Fatalf("n=%d q=%d pid=%d: W_i = %v, want n·q = %d",
					tt.n, tt.q, pid, wi, tt.n*tt.q)
			}
		}
	}
}

func TestParallelLiftingLemma10(t *testing.T) {
	// Lemma 10: f mapping counter vectors to occupancy vectors is a
	// lifting between M_I and M_S.
	for _, tt := range []struct{ n, q int }{
		{2, 2}, {3, 2}, {2, 3}, {3, 3},
	} {
		ind, lift, err := ParallelIndividual(tt.n, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := ParallelSystem(tt.n, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		report, err := markov.VerifyLifting(ind.Chain, sys.Chain, lift)
		if err != nil {
			t.Fatal(err)
		}
		if report.MaxFlowError > 1e-9 || report.MaxMarginalError > 1e-9 {
			t.Fatalf("n=%d q=%d: lifting errors flow=%v marginal=%v",
				tt.n, tt.q, report.MaxFlowError, report.MaxMarginalError)
		}
	}
}

func TestParallelQOneDegenerate(t *testing.T) {
	// q=1: every step completes; W = 1, W_i = n.
	ind, _, err := ParallelIndividual(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := ParallelSystem(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("W = %v, want 1", w)
	}
	wi, err := ind.IndividualLatency(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wi-3) > 1e-12 {
		t.Fatalf("W_i = %v, want 3", wi)
	}
}

func TestCompositionsEnumeration(t *testing.T) {
	comps := compositions(2, 2)
	if len(comps) != 3 {
		t.Fatalf("compositions(2,2) has %d entries, want 3", len(comps))
	}
	seen := make(map[string]bool)
	for _, c := range comps {
		var sum int
		for _, v := range c {
			sum += v
		}
		if sum != 2 {
			t.Fatalf("composition %v does not sum to 2", c)
		}
		seen[compKey(c)] = true
	}
	if len(seen) != 3 {
		t.Fatal("duplicate compositions")
	}
}

func TestCompKeyDistinguishesMultiDigit(t *testing.T) {
	// Regression: keys must not collide for counts >= 10.
	a := compKey([]int{1, 23})
	b := compKey([]int{12, 3})
	if a == b {
		t.Fatalf("compKey collision: %q", a)
	}
}

func TestParallelSystemGuardsBeforeEnumerating(t *testing.T) {
	// C(31, 7) ≈ 2.6M compositions: the size guard must reject them
	// without building any.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ParallelSystem(24, 8)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadN) {
		t.Fatalf("ParallelSystem(24, 8): %v, want ErrBadN", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("ParallelSystem(24, 8) allocated %d bytes before failing", alloc)
	}
}

func TestEstimateCompositions(t *testing.T) {
	if got := estimateCompositions(2, 2); got != 3 {
		t.Fatalf("C(3,1) = %d, want 3", got)
	}
	if got := estimateCompositions(4, 3); got != 15 {
		t.Fatalf("C(6,2) = %d, want 15", got)
	}
	if got := estimateCompositions(1000, 20); got != 1<<30 {
		t.Fatalf("saturation = %d", got)
	}
}
