package chains

import (
	"fmt"
	"strconv"
)

// maxParallelStates caps the chain sizes for the parallel-code chains
// of Section 6.2 (M_I has q^n states; M_S has C(n+q-1, q-1)).
const maxParallelStates = 20000

// ParallelIndividual builds the individual chain M_I of Section 6.2:
// states are counter vectors (C_1, ..., C_n) with C_i in {0, ..., q-1};
// a step picks a process uniformly and advances its counter mod q. A
// process completes when its counter wraps to 0. It returns the
// Analysis (with per-process success structure) and the lifting map
// onto ParallelSystem(n, q).
func ParallelIndividual(n, q int) (*Analysis, []int, error) {
	if n < 1 || q < 1 {
		return nil, nil, fmt.Errorf("%w: n=%d q=%d", ErrBadParams, n, q)
	}
	m := 1
	for i := 0; i < n; i++ {
		m *= q
		if m > maxParallelStates {
			return nil, nil, fmt.Errorf("%w: q^n exceeds %d states", ErrBadN, maxParallelStates)
		}
	}

	sysIndex := make(map[string]int)
	for i, st := range compositions(n, q) {
		sysIndex[compKey(st)] = i
	}

	lift := make([]int, m)
	ts := make([]transition, 0, m*n)
	fn := float64(n)
	digits := make([]int, n)
	counts := make([]int, q)
	for code := 0; code < m; code++ {
		c := code
		clear(counts)
		for i := 0; i < n; i++ {
			digits[i] = c % q
			c /= q
			counts[digits[i]]++
		}
		lift[code] = sysIndex[compKey(counts)]

		pow := 1
		for pid := 0; pid < n; pid++ {
			d := digits[pid]
			nd := (d + 1) % q
			done := noProc
			if nd == 0 {
				// Counter wrapped: the operation completed.
				done = pid
			}
			ts = append(ts, transition{from: code, to: code + (nd-d)*pow, p: 1 / fn, done: done})
			pow *= q
		}
	}

	ind, err := assemble("parallel individual", m, n, ts)
	if err != nil {
		return nil, nil, err
	}
	return ind, lift, nil
}

// ParallelSystem builds the system chain M_S of Section 6.2: states
// are occupancy vectors (v_0, ..., v_{q-1}) with Σ v_j = n, where v_j
// counts the processes whose step counter is j. It returns the
// Analysis and the state list.
func ParallelSystem(n, q int) (*Analysis, [][]int, error) {
	if n < 1 || q < 1 {
		return nil, nil, fmt.Errorf("%w: n=%d q=%d", ErrBadParams, n, q)
	}
	if est := estimateCompositions(n, q); est > maxParallelStates {
		return nil, nil, fmt.Errorf("%w: ~%d compositions exceed %d", ErrBadN, est, maxParallelStates)
	}
	states := compositions(n, q)
	index := make(map[string]int, len(states))
	for i, st := range states {
		index[compKey(st)] = i
	}

	var ts []transition
	fn := float64(n)
	next := make([]int, q)
	for i, st := range states {
		for j := 0; j < q; j++ {
			if st[j] == 0 {
				continue
			}
			copy(next, st)
			next[j]--
			next[(j+1)%q]++
			done := noProc
			if (j+1)%q == 0 {
				done = anyProc
			}
			ts = append(ts, transition{from: i, to: index[compKey(next)], p: float64(st[j]) / fn, done: done})
		}
	}

	sys, err := assemble("parallel system", len(states), 0, ts)
	if err != nil {
		return nil, nil, err
	}
	return sys, states, nil
}

// compositions enumerates all length-q non-negative integer vectors
// summing to n, in lexicographic order.
func compositions(n, q int) [][]int {
	var out [][]int
	cur := make([]int, q)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == q-1 {
			cur[pos] = left
			st := make([]int, q)
			copy(st, cur)
			out = append(out, st)
			return
		}
		for v := 0; v <= left; v++ {
			cur[pos] = v
			rec(pos+1, left-v)
		}
	}
	rec(0, n)
	return out
}

// compKey renders an occupancy vector as a map key.
func compKey(v []int) string {
	b := make([]byte, 0, len(v)*4)
	for _, x := range v {
		b = strconv.AppendInt(b, int64(x), 10)
		b = append(b, ',')
	}
	return string(b)
}

// estimateCompositions returns C(n+k-1, k-1), the number of length-k
// compositions of n, saturating at a large bound; the size guards
// check it before enumerating anything.
func estimateCompositions(n, k int) int {
	const maxEst = 1 << 30
	result := 1
	for i := 1; i < k; i++ {
		result = result * (n + i) / i
		if result > maxEst {
			return maxEst
		}
	}
	return result
}
