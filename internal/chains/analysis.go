// Package chains builds the paper's specific Markov chains exactly,
// for small process counts:
//
//   - the SCU(q, s) system chains of Section 6.1.1 and Theorem 4 over
//     class-occupancy vectors, of which SCU(0, 1)'s states (a, b) are
//     one labelling, and the SCU(0, 1) individual chain over the
//     3^n − 1 extended-local-state vectors;
//   - the parallel-code chains M_I and M_S of Section 6.2;
//   - the fetch-and-increment chains of Section 7.1: the individual
//     chain over the 2^n − 1 non-empty "who holds the current value"
//     subsets and the global chain over v_1 .. v_n.
//
// One enumeration, scuEnumerate, builds every SCU system chain. Each
// builder lists its chain as transitions, and one assembler turns
// them into a markov.Chain plus success structure. Individual-chain
// constructors also return the lifting map onto their system/global
// chain, so markov.VerifyLifting can check the paper's Lemmas 5, 10
// and 13 numerically; the per-state success probabilities give exact
// system and individual latencies.
//
// A note on ergodicity: the SCU and parallel chains as defined in the
// paper change the number of pending CAS/steps by exactly one per
// transition, so they are periodic with period 2 (and q,
// respectively) — irreducible but not aperiodic. All quantities the
// paper derives (stationary distribution, return times, latencies via
// Theorem 1, liftings) only require irreducibility, so this does not
// affect any result; it does mean StationarySolve must be used rather
// than plain power iteration. The fetch-and-increment chains have a
// self-loop at the winning state and are genuinely ergodic.
package chains

import (
	"errors"
	"fmt"

	"pwf/internal/markov"
)

// Package errors.
var (
	ErrBadN      = errors.New("chains: process count out of supported range")
	ErrBadParams = errors.New("chains: invalid parameters")
)

// Analysis bundles a chain with the success structure needed to read
// latencies off its stationary distribution.
type Analysis struct {
	// Chain is the transition structure.
	Chain *markov.Chain
	// Success[i] is the probability that a transition taken from
	// state i completes some operation.
	Success []float64
	// ProcSuccess[i][p], when non-nil, is the probability that a
	// transition from state i completes an operation *by process p*
	// (only individual chains carry this).
	ProcSuccess [][]float64

	stationary []float64
}

// Completion marks for transition.done.
const (
	noProc  = -1 // the move completes no operation
	anyProc = -2 // it completes one, on a chain that does not name processes
)

// A transition is one move of a chain: from state from to state to
// with probability p. done is the process whose operation the move
// completes, or anyProc or noProc.
type transition struct {
	from, to int
	p        float64
	done     int
}

// assemble builds the Analysis of an m-state chain from its
// transitions, adding the probabilities of a repeated (from, to) pair
// and each state's success probabilities in the order given. With
// procs > 0 it also fills ProcSuccess, and every completing transition
// must then name its process.
func assemble(name string, m, procs int, ts []transition) (*Analysis, error) {
	chain, err := markov.NewSparse(m, len(ts), func(k int) (int, int, float64) {
		return ts[k].from, ts[k].to, ts[k].p
	})
	if err != nil {
		return nil, fmt.Errorf("%s chain: %w", name, err)
	}
	success := make([]float64, m)
	var procSuccess [][]float64
	if procs > 0 {
		procSuccess = make([][]float64, m)
		for i := range procSuccess {
			procSuccess[i] = make([]float64, procs)
		}
	}
	for _, t := range ts {
		if t.done == noProc {
			continue
		}
		success[t.from] += t.p
		if procSuccess != nil {
			procSuccess[t.from][t.done] += t.p
		}
	}
	return &Analysis{Chain: chain, Success: success, ProcSuccess: procSuccess}, nil
}

// Stationary returns (and caches) the chain's stationary distribution
// computed by direct linear solve.
func (a *Analysis) Stationary() ([]float64, error) {
	if a.stationary == nil {
		pi, err := a.Chain.StationarySolve()
		if err != nil {
			return nil, err
		}
		a.stationary = pi
	}
	out := make([]float64, len(a.stationary))
	copy(out, a.stationary)
	return out, nil
}

// SuccessRate returns μ, the stationary probability that a system step
// completes some operation. The system latency is W = 1/μ.
func (a *Analysis) SuccessRate() (float64, error) {
	pi, err := a.Stationary()
	if err != nil {
		return 0, err
	}
	if len(a.Success) != len(pi) {
		return 0, fmt.Errorf("chains: success vector has %d entries for %d states",
			len(a.Success), len(pi))
	}
	var mu float64
	for i, p := range pi {
		mu += p * a.Success[i]
	}
	return mu, nil
}

// SystemLatency returns W = 1/μ, the expected number of system steps
// between two completions in stationarity.
func (a *Analysis) SystemLatency() (float64, error) {
	mu, err := a.SuccessRate()
	if err != nil {
		return 0, err
	}
	if mu <= 0 {
		return 0, errors.New("chains: zero stationary success rate")
	}
	return 1 / mu, nil
}

// IndividualLatency returns W_p = 1/η_p for process p, where η_p is
// the stationary probability that a step is a completion by p. It
// requires ProcSuccess (individual chains only).
func (a *Analysis) IndividualLatency(p int) (float64, error) {
	if a.ProcSuccess == nil {
		return 0, errors.New("chains: no per-process success structure")
	}
	pi, err := a.Stationary()
	if err != nil {
		return 0, err
	}
	var eta float64
	for i, prob := range pi {
		row := a.ProcSuccess[i]
		if p < 0 || p >= len(row) {
			return 0, fmt.Errorf("chains: process %d out of range", p)
		}
		eta += prob * row[p]
	}
	if eta <= 0 {
		return 0, fmt.Errorf("chains: process %d has zero stationary success rate", p)
	}
	return 1 / eta, nil
}
