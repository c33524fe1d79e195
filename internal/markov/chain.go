// Package markov provides the finite Markov chain substrate of
// Section 3: dense time-invariant chains with ergodicity checks
// (irreducibility via strong connectivity, aperiodicity via the cycle
// gcd), stationary distributions computed both by direct linear solve
// and by power iteration, hitting and return times, and verification
// of Markov chain liftings in the sense of Chen–Lovász–Pak /
// Hayes–Sinclair, which is the key tool of the paper's analysis.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// Chain construction and query errors.
var (
	ErrNotStochastic  = errors.New("markov: matrix is not row-stochastic")
	ErrNotIrreducible = errors.New("markov: chain is not irreducible")
	ErrBadState       = errors.New("markov: state index out of range")
	ErrNoConvergence  = errors.New("markov: power iteration did not converge")
)

// rowSumTolerance is the allowed deviation of each transition row from
// summing to exactly 1.
const rowSumTolerance = 1e-9

// Chain is a finite, time-invariant, discrete-time Markov chain with a
// dense transition matrix.
type Chain struct {
	p [][]float64
}

// New validates a transition matrix (square, non-negative entries,
// rows summing to 1) and wraps it. The matrix is deep-copied.
func New(p [][]float64) (*Chain, error) {
	n := len(p)
	if n == 0 {
		return nil, errors.New("markov: empty chain")
	}
	cp := make([][]float64, n)
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
		var sum float64
		cp[i] = make([]float64, n)
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: entry (%d,%d) = %v", ErrNotStochastic, i, j, v)
			}
			cp[i][j] = v
			sum += v
		}
		if math.Abs(sum-1) > rowSumTolerance {
			return nil, fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, sum)
		}
	}
	return &Chain{p: cp}, nil
}

// N returns the number of states.
func (c *Chain) N() int { return len(c.p) }

// P returns the transition probability from state i to state j.
func (c *Chain) P(i, j int) float64 { return c.p[i][j] }

// StepDistribution returns q·P, the state distribution after one step
// from distribution q.
func (c *Chain) StepDistribution(q []float64) ([]float64, error) {
	n := c.N()
	if len(q) != n {
		return nil, fmt.Errorf("markov: distribution has %d entries, want %d", len(q), n)
	}
	out := make([]float64, n)
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		row := c.p[i]
		for j, pij := range row {
			out[j] += qi * pij
		}
	}
	return out, nil
}

// successors enumerates j with p[i][j] > 0.
func (c *Chain) successors(i int) []int {
	var out []int
	for j, v := range c.p[i] {
		if v > 0 {
			out = append(out, j)
		}
	}
	return out
}

// Irreducible reports whether the chain's underlying digraph is
// strongly connected: every state reachable from every other.
func (c *Chain) Irreducible() bool {
	n := c.N()
	if n == 1 {
		return true
	}
	forward := c.reachableFrom(0, false)
	if len(forward) != n {
		return false
	}
	backward := c.reachableFrom(0, true)
	return len(backward) == n
}

// reachableFrom returns the set of states reachable from start,
// following edges backwards when reverse is set.
func (c *Chain) reachableFrom(start int, reverse bool) map[int]bool {
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < c.N(); v++ {
			var edge bool
			if reverse {
				edge = c.p[v][u] > 0
			} else {
				edge = c.p[u][v] > 0
			}
			if edge && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// Period returns the period of the chain, which is well defined (all
// states share it) when the chain is irreducible; otherwise it
// returns ErrNotIrreducible. A period of 1 means aperiodic.
func (c *Chain) Period() (int, error) {
	if !c.Irreducible() {
		return 0, ErrNotIrreducible
	}
	// BFS levels from state 0; the period is the gcd over all edges
	// (u,v) of |level[u] + 1 - level[v]|.
	n := c.N()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range c.successors(u) {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	g := 0
	for u := 0; u < n; u++ {
		for _, v := range c.successors(u) {
			d := level[u] + 1 - level[v]
			if d < 0 {
				d = -d
			}
			g = gcd(g, d)
		}
	}
	if g == 0 {
		// Only possible for the single-state chain with a self-loop
		// handled above, but keep a sane default.
		g = 1
	}
	return g, nil
}

// Ergodic reports whether the chain is irreducible and aperiodic.
func (c *Chain) Ergodic() bool {
	period, err := c.Period()
	return err == nil && period == 1
}

// StationarySolve computes the unique stationary distribution of an
// irreducible chain by direct linear solve of π·P = π, Σπ = 1.
func (c *Chain) StationarySolve() ([]float64, error) {
	if !c.Irreducible() {
		return nil, ErrNotIrreducible
	}
	n := c.N()
	// Build A = (P^T - I), then replace the last row by the
	// normalization constraint Σ π_i = 1.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = c.p[j][i]
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	pi, err := solveDense(a, b)
	if err != nil {
		return nil, fmt.Errorf("stationary solve: %w", err)
	}
	// Guard against tiny negative round-off and renormalize.
	var sum float64
	for i, v := range pi {
		if v < 0 {
			if v < -1e-9 {
				return nil, fmt.Errorf("markov: stationary solve produced π[%d] = %v", i, v)
			}
			pi[i] = 0
		}
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// StationaryPower computes the stationary distribution by power
// iteration from the uniform distribution, stopping when successive
// iterates differ by less than tol in max norm. It requires an
// ergodic chain to converge; reducible or periodic chains yield
// ErrNoConvergence within maxIter iterations.
func (c *Chain) StationaryPower(tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 {
		return nil, errors.New("markov: tolerance must be positive")
	}
	if maxIter < 1 {
		return nil, errors.New("markov: maxIter must be positive")
	}
	n := c.N()
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		next, err := c.StepDistribution(cur)
		if err != nil {
			return nil, err
		}
		var diff float64
		for i := range next {
			if d := math.Abs(next[i] - cur[i]); d > diff {
				diff = d
			}
		}
		cur = next
		if diff < tol {
			return cur, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConvergence, maxIter)
}

// Residual returns ‖π·P − π‖∞, the stationarity defect of π.
func (c *Chain) Residual(pi []float64) (float64, error) {
	next, err := c.StepDistribution(pi)
	if err != nil {
		return 0, err
	}
	var r float64
	for i := range next {
		if d := math.Abs(next[i] - pi[i]); d > r {
			r = d
		}
	}
	return r, nil
}

// HittingTimes returns h[i] = E[number of steps to first reach target
// from i], with h[target] = 0, for an irreducible chain.
func (c *Chain) HittingTimes(target int) ([]float64, error) {
	n := c.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("%w: %d", ErrBadState, target)
	}
	if !c.Irreducible() {
		return nil, ErrNotIrreducible
	}
	if n == 1 {
		return []float64{0}, nil
	}
	// Solve (I - Q) h = 1 where Q drops row/column `target`.
	m := n - 1
	idx := make([]int, 0, m) // chain state for each reduced index
	for i := 0; i < n; i++ {
		if i != target {
			idx = append(idx, i)
		}
	}
	a := make([][]float64, m)
	b := make([]float64, m)
	for r, i := range idx {
		a[r] = make([]float64, m)
		for ccol, j := range idx {
			a[r][ccol] = -c.p[i][j]
		}
		a[r][r] += 1
		b[r] = 1
	}
	h, err := solveDense(a, b)
	if err != nil {
		return nil, fmt.Errorf("hitting times: %w", err)
	}
	out := make([]float64, n)
	for r, i := range idx {
		out[i] = h[r]
	}
	return out, nil
}

// ReturnTime returns the expected return time E[T_jj] of state j,
// computed from hitting times: 1 + Σ_k p_jk · h_k. For an irreducible
// chain, Theorem 1 gives ReturnTime(j) == 1/π_j, which tests verify.
func (c *Chain) ReturnTime(j int) (float64, error) {
	h, err := c.HittingTimes(j)
	if err != nil {
		return 0, err
	}
	ret := 1.0
	for k, pjk := range c.p[j] {
		ret += pjk * h[k]
	}
	return ret, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
