package chains

import (
	"errors"
	"math"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

func TestSCUSystemQSValidation(t *testing.T) {
	if _, err := SCUSystemQS(0, 0, 1); !errors.Is(err, ErrBadN) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := SCUSystemQS(2, -1, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("q=-1: %v", err)
	}
	if _, err := SCUSystemQS(2, 0, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("s=0: %v", err)
	}
	if _, err := SCUSystemQS(100, 10, 5); !errors.Is(err, ErrBadN) {
		t.Errorf("huge state space: %v", err)
	}
}

func TestSCUSystemQSReachableStatesOnly(t *testing.T) {
	// The breadth-first enumeration keeps the chain irreducible.
	for _, tc := range []struct{ n, q, s int }{
		{2, 0, 2}, {3, 0, 2}, {2, 0, 3}, {4, 0, 2}, {4, 2, 1}, {3, 1, 2},
	} {
		a, err := SCUSystemQS(tc.n, tc.q, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Chain.Irreducible() {
			t.Fatalf("n=%d q=%d s=%d: chain not irreducible", tc.n, tc.q, tc.s)
		}
	}
}

func TestSCUSystemQSSolo(t *testing.T) {
	// Solo process: every operation takes exactly q + s + 1 steps.
	for _, tc := range []struct{ q, s int }{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {2, 1}, {3, 2}, {1, 3},
	} {
		a, err := SCUSystemQS(1, tc.q, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := a.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tc.q + tc.s + 1)
		if math.Abs(w-want) > 1e-9 {
			t.Fatalf("q=%d s=%d: solo W = %v, want %v", tc.q, tc.s, w, want)
		}
	}
}

func TestSCUSystemQSMatchesSimulation(t *testing.T) {
	for _, tc := range []struct{ n, q, s int }{
		{4, 0, 2}, {8, 0, 2}, {4, 0, 3}, {4, 2, 1}, {6, 4, 1}, {4, 1, 2},
	} {
		exact, err := SCUSystemQS(tc.n, tc.q, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := exact.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}

		mem, err := shmem.New(scu.SCULayout(tc.s))
		if err != nil {
			t.Fatal(err)
		}
		procs, err := scu.NewSCUGroup(tc.n, tc.q, tc.s, 0)
		if err != nil {
			t.Fatal(err)
		}
		u, err := sched.NewUniform(tc.n, rng.New(uint64(1000+tc.n*37+tc.q*7+tc.s)))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := machine.New(mem, procs, u)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(50000); err != nil {
			t.Fatal(err)
		}
		sim.ResetMetrics()
		if err := sim.Run(1000000); err != nil {
			t.Fatal(err)
		}
		got, err := sim.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-w) / w; rel > 0.02 {
			t.Fatalf("n=%d q=%d s=%d: sim %v vs exact %v (rel %v)", tc.n, tc.q, tc.s, got, w, rel)
		}
	}
}

func TestSCUSystemQSPreambleAddsQ(t *testing.T) {
	// Theorem 4 composition: the preamble contributes ~q steps of
	// fully parallel work: W(q, s) should be close to q + W(0, s)
	// for moderate n (exactly q in the limit; allow slack because the
	// preamble also relieves contention on the loop).
	const n = 6
	base, err := SCUSystemQS(n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := base.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 2, 4} {
		a, err := SCUSystemQS(n, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := a.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if w < w0 {
			t.Fatalf("q=%d: W %v below the q=0 latency %v", q, w, w0)
		}
		if w > w0+float64(q)+1 {
			t.Fatalf("q=%d: W %v exceeds W0 + q + 1 = %v", q, w, w0+float64(q)+1)
		}
	}
}

func TestSCUSystemQSMonotoneInQ(t *testing.T) {
	const n = 4
	prev := 0.0
	for q := 0; q <= 5; q++ {
		a, err := SCUSystemQS(n, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := a.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if w < prev {
			t.Fatalf("q=%d: W %v decreased from %v", q, w, prev)
		}
		prev = w
	}
}

func TestSCUSystemQSScalesWithS(t *testing.T) {
	// Corollary 1: W = O(s·√n); at fixed n, W grows at most linearly
	// in s and at least proportionally to s/2. n and s are kept small
	// because the state space (compositions of n into 2s+1 classes)
	// and the cubic solve grow quickly.
	const n = 6
	var prev float64
	for s := 1; s <= 3; s++ {
		a, err := SCUSystemQS(n, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := a.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		if s > 1 {
			if growth := w / prev; growth < 1.05 || growth > 2.5 {
				t.Fatalf("s=%d: W grew by factor %v from s-1", s, growth)
			}
		}
		prev = w
	}
}
