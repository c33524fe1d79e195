package chains

import (
	"fmt"
	"math"
)

// maxFetchIncIndividualN caps the fetch-and-increment individual chain
// at 2^12 − 1 = 4095 states.
const maxFetchIncIndividualN = 12

// FetchIncGlobal builds the global chain M_G of Section 7.1 for the
// augmented-CAS fetch-and-increment counter: state v_i (index i−1)
// means i processes hold the current value of the register. From v_i
// the chain moves to the winning state v_1 with probability i/n (a
// current process is scheduled and its CAS succeeds) and to v_{i+1}
// with probability 1 − i/n (a stale process is scheduled, fails its
// CAS, and learns the current value).
func FetchIncGlobal(n int) (*Analysis, error) {
	if n < 1 || n > maxSCUSystemN {
		return nil, fmt.Errorf("%w: n=%d (1..%d)", ErrBadN, n, maxSCUSystemN)
	}
	ts := make([]transition, 0, 2*n)
	fn := float64(n)
	for i := 1; i <= n; i++ {
		win := float64(i) / fn
		ts = append(ts, transition{from: i - 1, to: 0, p: win, done: anyProc})
		if i < n {
			ts = append(ts, transition{from: i - 1, to: i, p: 1 - win, done: noProc})
		}
	}
	return assemble("fetch-inc global", n, 0, ts)
}

// FetchIncIndividual builds the individual chain M_I of Section 7.1:
// one state per non-empty subset S of processes holding the current
// value (2^n − 1 states). A step by p ∈ S wins and yields {p}; a step
// by p ∉ S yields S ∪ {p}. It returns the Analysis (with per-process
// success structure) and the lifting map onto FetchIncGlobal(n):
// subset S maps to state v_{|S|}.
func FetchIncIndividual(n int) (*Analysis, []int, error) {
	if n < 1 || n > maxFetchIncIndividualN {
		return nil, nil, fmt.Errorf("%w: n=%d (1..%d)", ErrBadN, n, maxFetchIncIndividualN)
	}
	m := (1 << n) - 1 // subsets 1 .. 2^n − 1; index = mask − 1
	lift := make([]int, m)
	ts := make([]transition, 0, m*n)
	fn := float64(n)
	for mask := 1; mask <= m; mask++ {
		lift[mask-1] = popcount(mask) - 1
		for pid := 0; pid < n; pid++ {
			bit := 1 << pid
			// A stale p fails its CAS and learns the value; a current
			// p wins, and everyone else becomes stale.
			next, done := mask|bit, noProc
			if mask&bit != 0 {
				next, done = bit, pid
			}
			ts = append(ts, transition{from: mask - 1, to: next - 1, p: 1 / fn, done: done})
		}
	}
	ind, err := assemble("fetch-inc individual", m, n, ts)
	if err != nil {
		return nil, nil, err
	}
	return ind, lift, nil
}

// FetchIncHittingZ computes the hitting-time sequence of Lemma 12:
// Z(i) is the expected number of steps for the global chain to reach
// the winning state v_1 from the state where n − i processes hold the
// current value, satisfying Z(0) = 1 and Z(i) = (i/n)·Z(i−1) + 1. The
// returned slice has n entries, Z(0) .. Z(n−1). Lemma 12 shows
// Z(n−1) ≤ 2√n.
func FetchIncHittingZ(n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadN, n)
	}
	z := make([]float64, n)
	z[0] = 1
	for i := 1; i < n; i++ {
		z[i] = float64(i)/float64(n)*z[i-1] + 1
	}
	return z, nil
}

// RamanujanQ computes Ramanujan's Q-function
// Q(n) = Σ_{k=1}^{n} n!/((n−k)!·n^k). Unfolding the Lemma 12
// recurrence shows Z(n−1) = Q(n) exactly (the remark after Lemma 12);
// its asymptotics are √(πn/2)·(1 + o(1)).
func RamanujanQ(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("%w: n=%d", ErrBadN, n)
	}
	term := 1.0
	sum := 0.0
	for k := 1; k <= n; k++ {
		term *= float64(n-k+1) / float64(n)
		sum += term
	}
	return sum, nil
}

// RamanujanQAsymptote returns the leading-order asymptotic √(πn/2).
func RamanujanQAsymptote(n int) float64 {
	return math.Sqrt(math.Pi * float64(n) / 2)
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
