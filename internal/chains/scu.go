package chains

import (
	"fmt"
	"sort"
)

// Extended local states of a process in the scan-validate loop
// (Section 6.1.1): about to read, about to CAS with a stale value, or
// about to CAS with the current value.
const (
	stateRead   = 0
	stateOldCAS = 1
	stateCCAS   = 2
)

// SCUSystemState is a state (a, b) of the system chain: a processes
// about to read, b processes about to CAS with a stale value, and
// n − a − b about to CAS with the current value.
type SCUSystemState struct {
	A int
	B int
}

// String implements fmt.Stringer.
func (s SCUSystemState) String() string { return fmt.Sprintf("(%d,%d)", s.A, s.B) }

// maxSCUSystemN caps the system-chain size: states grow as ~n²/2, and
// the direct solve takes about 0.2 s at the cap.
const maxSCUSystemN = 128

// SCUSystem builds the system chain of Section 6.1.1 for n processes
// executing SCU(0, 1). The returned states slice gives the (a, b)
// tuple of each chain state; the Analysis marks the success
// transitions (a step by a process holding the current value).
func SCUSystem(n int) (*Analysis, []SCUSystemState, error) {
	if n < 1 || n > maxSCUSystemN {
		return nil, nil, fmt.Errorf("%w: n=%d (1..%d)", ErrBadN, n, maxSCUSystemN)
	}
	states, ts := scuSystem(n)
	a, err := assemble("scu system", len(states), 0, ts)
	if err != nil {
		return nil, nil, err
	}
	return a, states, nil
}

// scuSystem lists the SCU(0, 1) system chain as the states and
// transitions of scuEnumerate(n, 0, 1), relabelled (a, b) and sorted
// by a, then b. The states are every (a, b) with a + b <= n except
// (0, n), where every process would CAS with a stale value. From
// (a, b), with c = n − a − b processes holding the current value:
//
//   - a reader steps with probability a/n and goes to (a−1, b);
//   - a stale CAS fails with probability b/n and goes to (a+1, b−1);
//   - a current CAS succeeds with probability c/n, goes to
//     (a+1, n−a−1), and completes an operation.
func scuSystem(n int) ([]SCUSystemState, []transition) {
	vecs, ts := scuEnumerate(n, 0, 1)
	// The classes of SCU(0, 1) are Scan_1 (the readers, a), CASCur
	// and CASOld (the stale CASes, b).
	order := make([]int, len(vecs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		x, y := vecs[order[i]], vecs[order[j]]
		return x[0] < y[0] || x[0] == y[0] && x[2] < y[2]
	})
	rank := make([]int, len(vecs))
	states := make([]SCUSystemState, len(vecs))
	for r, i := range order {
		rank[i] = r
		states[r] = SCUSystemState{A: vecs[i][0], B: vecs[i][2]}
	}
	for i := range ts {
		ts[i].from, ts[i].to = rank[ts[i].from], rank[ts[i].to]
	}
	return states, ts
}

// maxSCUIndividualN caps the individual chain at 3^8 − 1 = 6560
// states.
const maxSCUIndividualN = 8

// SCUIndividual builds the individual chain of Section 6.1.1 for n
// processes executing SCU(0, 1): one state per vector of extended
// local states in {Read, OldCAS, CCAS}^n, excluding the impossible
// all-OldCAS vector — 3^n − 1 states. It returns the Analysis (with
// per-process success structure) and the lifting map onto the system
// chain returned by SCUSystem(n): lift[x] is the system-state index
// of individual state x.
func SCUIndividual(n int) (*Analysis, []int, error) {
	if n < 1 || n > maxSCUIndividualN {
		return nil, nil, fmt.Errorf("%w: n=%d (1..%d)", ErrBadN, n, maxSCUIndividualN)
	}
	pow3 := 1
	// The all-OldCAS vector has every base-3 digit equal to 1.
	excluded := 0
	for i := 0; i < n; i++ {
		pow3 *= 3
		excluded = excluded*3 + 1
	}
	// Compact indexing: skip the excluded code. No move reaches it,
	// because a step never leaves its own process at OldCAS.
	codeToIdx := func(code int) int {
		if code < excluded {
			return code
		}
		return code - 1
	}

	sysStates, _ := scuSystem(n)
	sysIndex := make(map[SCUSystemState]int, len(sysStates))
	for i, st := range sysStates {
		sysIndex[st] = i
	}

	m := pow3 - 1
	lift := make([]int, m)
	ts := make([]transition, 0, m*n)
	digits := make([]int, n)
	fn := float64(n)
	for code := 0; code < pow3; code++ {
		if code == excluded {
			continue
		}
		idx := codeToIdx(code)

		// Decode digits (process 0 is the least significant digit).
		c := code
		a, b := 0, 0
		for i := 0; i < n; i++ {
			digits[i] = c % 3
			c /= 3
			switch digits[i] {
			case stateRead:
				a++
			case stateOldCAS:
				b++
			}
		}
		lift[idx] = sysIndex[SCUSystemState{A: a, B: b}]

		pow := 1
		for pid := 0; pid < n; pid++ {
			next := code
			done := noProc
			switch digits[pid] {
			case stateRead:
				// Read → CCAS.
				next += (stateCCAS - stateRead) * pow
			case stateOldCAS:
				// Failed CAS → Read.
				next += (stateRead - stateOldCAS) * pow
			case stateCCAS:
				// Successful CAS: pid → Read; every other CCAS → OldCAS.
				next = 0
				mult := 1
				for i := 0; i < n; i++ {
					d := digits[i]
					switch {
					case i == pid:
						d = stateRead
					case d == stateCCAS:
						d = stateOldCAS
					}
					next += d * mult
					mult *= 3
				}
				done = pid
			}
			ts = append(ts, transition{from: idx, to: codeToIdx(next), p: 1 / fn, done: done})
			pow *= 3
		}
	}

	ind, err := assemble("scu individual", m, n, ts)
	if err != nil {
		return nil, nil, err
	}
	return ind, lift, nil
}
