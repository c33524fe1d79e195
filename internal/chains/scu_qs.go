package chains

import (
	"fmt"
)

// SCUSystemQS builds the system chain for the full class SCU(q, s):
// a preamble of q independent steps followed by the s-step
// scan-and-validate loop. It closes the loop on Theorem 4's
// O(q + s√n) bound: the exact latency of any member of the class,
// for small n. SCUSystem is its (0, 1) case with the states labelled
// (a, b).
func SCUSystemQS(n, q, s int) (*Analysis, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadN, n)
	}
	if q < 0 || s < 1 {
		return nil, fmt.Errorf("%w: q=%d s=%d", ErrBadParams, q, s)
	}
	if est := estimateCompositions(n, q+2*s+1); est > maxParallelStates {
		return nil, fmt.Errorf("%w: ~%d states exceed %d", ErrBadN, est, maxParallelStates)
	}
	states, ts := scuEnumerate(n, q, s)
	return assemble("scu(q,s) system", len(states), 0, ts)
}

// scuEnumerate lists the SCU(q, s) system chain: the class-occupancy
// vectors reachable from every process at the start of an operation,
// in breadth-first order, and the transitions between them. The
// extended local classes, in index order, are:
//
//	Pre_1 .. Pre_q   preamble steps (unaffected by other processes)
//	Scan_1           first scan read (reads the decision register R)
//	ScanF_i, i=2..s  scan read i with a fresh snapshot
//	ScanS_i, i=2..s  scan read i with a stale snapshot
//	CASCur           about to CAS with the current value
//	CASOld           about to CAS with a stale value
//
// A scheduled process belongs to class c with probability v[c]/n. A
// successful CAS flips every fresh scanner to stale and every other
// CASCur to CASOld; a process still at Scan_1 has not read R yet and
// is unaffected. The winner restarts at Pre_1 (the next operation's
// preamble); a failed CAS restarts at Scan_1 only, matching
// Algorithm 2 (the preamble is not re-run on validation failure).
// Breadth-first enumeration keeps only reachable states, so the
// chain is irreducible (the all-CASOld vector, for one, never occurs).
func scuEnumerate(n, q, s int) ([][]int, []transition) {
	classes := q + 2*s + 1
	scan1 := q
	scanF := func(i int) int { return q + 1 + (i - 2) } // i in 2..s
	scanS := func(i int) int { return q + s + (i - 2) } // i in 2..s
	casCur := q + 2*s - 1
	casOld := q + 2*s
	restart := 0 // Pre_1, or Scan_1 when q = 0

	initial := make([]int, classes)
	initial[restart] = n
	index := map[string]int{compKey(initial): 0}
	states := [][]int{initial}
	var ts []transition
	fn := float64(n)

	for cur := 0; cur < len(states); cur++ {
		st := states[cur]
		for c := 0; c < classes; c++ {
			if st[c] == 0 {
				continue
			}
			next := make([]int, classes)
			copy(next, st)
			next[c]--
			done := noProc
			switch {
			case c < scan1:
				// Preamble step i -> i+1, or into the scan.
				next[c+1]++
			case c == scan1:
				if s == 1 {
					next[casCur]++
				} else {
					next[scanF(2)]++
				}
			case c < scanS(2):
				if c == scanF(s) {
					next[casCur]++
				} else {
					next[c+1]++
				}
			case c < casCur:
				if c == scanS(s) {
					next[casOld]++
				} else {
					next[c+1]++
				}
			case c == casCur:
				done = anyProc
				next[restart]++
				for i := 2; i <= s; i++ {
					next[scanS(i)] += next[scanF(i)]
					next[scanF(i)] = 0
				}
				next[casOld] += next[casCur]
				next[casCur] = 0
			default: // CASOld
				next[scan1]++
			}
			key := compKey(next)
			to, ok := index[key]
			if !ok {
				to = len(states)
				index[key] = to
				states = append(states, next)
			}
			ts = append(ts, transition{from: cur, to: to, p: float64(st[c]) / fn, done: done})
		}
	}
	return states, ts
}
