package markov_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pwf/internal/chains"
	"pwf/internal/markov"
	"pwf/internal/rng"
)

// sameResult asserts that a solve returned the dense oracle's bits,
// or failed as the oracle did.
func sameResult(t *testing.T, what string, got []float64, err error, want []float64, wantErr error) {
	t.Helper()
	if err != nil || wantErr != nil {
		if !errors.Is(err, markov.ErrSingular) || !errors.Is(wantErr, markov.ErrSingular) {
			t.Fatalf("%s: error %v, dense error %v", what, err, wantErr)
		}
		return
	}
	if i := markov.SameBits(got, want); i >= 0 {
		t.Fatalf("%s: [%d] = %v, dense %v", what, i, got[i], want[i])
	}
}

// checkBits asserts that StationarySolve and HittingTimes(0) return the
// dense oracle's bits on c, and returns the oracle's π. Both solves may
// fail alike: the dense elimination calls a pivot below 1e-14
// singular, and hitting state 0 of a large SCU chain takes long enough
// to get there.
func checkBits(t *testing.T, name string, c *markov.Chain) []float64 {
	t.Helper()
	pi, err := c.StationarySolve()
	want, wantErr := markov.DenseStationary(c)
	sameResult(t, name+": π", pi, err, want, wantErr)
	h, err := c.HittingTimes(0)
	hWant, wantErr := markov.DenseHittingTimes(c, 0)
	sameResult(t, name+": h", h, err, hWant, wantErr)
	return want
}

// TestExactChainsMatchDenseBits checks every chain family against the
// dense elimination, bit for bit: π, the hitting times of state 0 and
// the system latency W = 1/Σ π_i·success_i.
func TestExactChainsMatchDenseBits(t *testing.T) {
	type family struct {
		name  string
		build func() (*chains.Analysis, error)
	}
	var fams []family
	add := func(name string, build func() (*chains.Analysis, error)) {
		fams = append(fams, family{name, build})
	}
	drop := func(a *chains.Analysis, _ any, err error) (*chains.Analysis, error) { return a, err }
	for _, n := range []int{1, 2, 3, 4, 8, 16, 32, 64} {
		add(fmt.Sprintf("scu system n=%d", n), func() (*chains.Analysis, error) { return drop(chains.SCUSystem(n)) })
	}
	for n := 1; n <= 6; n++ {
		for _, qs := range [][2]int{{0, 2}, {0, 3}, {4, 1}, {2, 2}} {
			add(fmt.Sprintf("scu(%d,%d) system n=%d", qs[0], qs[1], n), func() (*chains.Analysis, error) {
				return chains.SCUSystemQS(n, qs[0], qs[1])
			})
		}
		add(fmt.Sprintf("scu individual n=%d", n), func() (*chains.Analysis, error) { return drop(chains.SCUIndividual(n)) })
	}
	for _, n := range []int{1, 2, 3, 8, 64} {
		add(fmt.Sprintf("fetch-inc global n=%d", n), func() (*chains.Analysis, error) { return chains.FetchIncGlobal(n) })
	}
	for n := 1; n <= 8; n++ {
		add(fmt.Sprintf("fetch-inc individual n=%d", n), func() (*chains.Analysis, error) { return drop(chains.FetchIncIndividual(n)) })
	}
	for _, q := range []int{3, 5} {
		for _, n := range []int{1, 2, 4, 8, 64} {
			if q == 5 && n == 64 {
				break // C(68, 4) = 814,385 states
			}
			add(fmt.Sprintf("parallel(%d) system n=%d", q, n), func() (*chains.Analysis, error) { return drop(chains.ParallelSystem(n, q)) })
		}
		for n := 1; q == 3 && n <= 6 || n <= 4; n++ {
			add(fmt.Sprintf("parallel(%d) individual n=%d", q, n), func() (*chains.Analysis, error) { return drop(chains.ParallelIndividual(n, q)) })
		}
	}

	for _, f := range fams {
		a, err := f.build()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		pi := checkBits(t, f.name, a.Chain)
		var mu float64
		for i, p := range pi {
			mu += p * a.Success[i]
		}
		w, err := a.SystemLatency()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if math.Float64bits(w) != math.Float64bits(1/mu) {
			t.Fatalf("%s: W = %v, dense %v", f.name, w, 1/mu)
		}
	}
}

// TestRandomSparseChainsMatchDenseBits checks seeded random sparse
// chains: a cycle through every state keeps each irreducible, a few
// random edges per state add structure, and some states move to every
// state, which puts a full-width row into I − Q and a full-width
// column into Pᵀ − I.
func TestRandomSparseChainsMatchDenseBits(t *testing.T) {
	src := rng.New(1311)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(60)
		p := make([][]float64, n)
		for i := range p {
			p[i] = make([]float64, n)
			p[i][(i+1)%n] = 1
			if src.Intn(8) == 0 {
				for j := range p[i] {
					p[i][j] += float64(1 + src.Intn(4))
				}
			}
			for k := src.Intn(4); k > 0; k-- {
				p[i][src.Intn(n)] += float64(src.Intn(4))
			}
			var sum float64
			for _, v := range p[i] {
				sum += v
			}
			for j := range p[i] {
				p[i][j] /= sum
			}
		}
		c, err := markov.New(p)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, fmt.Sprintf("trial %d (n=%d)", trial, n), c)
	}
}
