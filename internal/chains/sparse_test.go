package chains

import (
	"errors"
	"math"
	"testing"
)

func TestSparseValidation(t *testing.T) {
	if _, err := SCUSystemLatencyLarge(0); !errors.Is(err, ErrBadN) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := SCUSystemLatencyLarge(maxSCULargeN + 1); !errors.Is(err, ErrBadN) {
		t.Errorf("n too large: %v", err)
	}
	a, _, err := SCUSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazyLatency(a, a.Chain.N()-1, 1e-30, 3); !errors.Is(err, ErrNoSparseConvergence) {
		t.Errorf("tiny budget: %v", err)
	}
}

func TestSparseLargeNPinnedBits(t *testing.T) {
	// The large-n exact rows of E4 and E11. The iteration sums in
	// state order, so reordering the enumeration would move these
	// bits.
	for _, tc := range []struct {
		n    int
		bits uint64
	}{{128, 0x4034af8b17ab1e73}, {256, 0x403d008dde819696}} {
		w, err := SCUSystemLatencyLarge(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(w); got != tc.bits {
			t.Fatalf("n=%d: W = %v (bits %#x), want %v (bits %#x)",
				tc.n, w, got, math.Float64frombits(tc.bits), tc.bits)
		}
	}
}

func TestSparseMatchesDenseSolve(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		dense, _, err := SCUSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		wDense, err := dense.SystemLatency()
		if err != nil {
			t.Fatal(err)
		}
		wSparse, err := SCUSystemLatencyLarge(n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(wSparse-wDense) / wDense; rel > 1e-6 {
			t.Fatalf("n=%d: sparse %v vs dense %v (rel %v)", n, wSparse, wDense, rel)
		}
	}
}

func TestSparseLargeNSqrtScaling(t *testing.T) {
	// The point of the sparse solver: exact W far beyond the dense
	// cap, confirming the √n scaling with exact values.
	w128, err := SCUSystemLatencyLarge(128)
	if err != nil {
		t.Fatal(err)
	}
	w512, err := SCUSystemLatencyLarge(512)
	if err != nil {
		t.Fatal(err)
	}
	slope := math.Log(w512/w128) / math.Log(4)
	if math.Abs(slope-0.5) > 0.05 {
		t.Fatalf("exact log-log slope over n=128..512 is %v, want ~0.5 (W: %v, %v)",
			slope, w128, w512)
	}
	for _, tc := range []struct {
		n int
		w float64
	}{{128, w128}, {512, w512}} {
		ratio := tc.w / math.Sqrt(float64(tc.n))
		if ratio < 1 || ratio > 3 {
			t.Fatalf("n=%d: W/√n = %v outside [1, 3]", tc.n, ratio)
		}
	}
}
