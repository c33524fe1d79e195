// Package markov provides the finite Markov chain substrate of
// Section 3: time-invariant chains stored as compressed rows, with
// ergodicity checks (irreducibility via strong connectivity,
// aperiodicity via the cycle gcd), stationary distributions computed
// both by direct linear solve and by power iteration, hitting and
// return times, and verification of Markov chain liftings in the sense
// of Chen–Lovász–Pak / Hayes–Sinclair, which is the key tool of the
// paper's analysis. The direct solves eliminate over each row's
// envelope only, and return the bits of dense Gaussian elimination
// with partial pivoting.
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
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

// Chain is a finite, time-invariant, discrete-time Markov chain. Its
// transition matrix is stored as compressed rows: row i's non-zero
// entries are col[start[i]:start[i+1]], in increasing column order,
// with probabilities p over the same range.
type Chain struct {
	start []int
	col   []int
	p     []float64
}

// New validates a dense transition matrix (square, non-negative
// entries, rows summing to 1) and stores its non-zero entries. The
// matrix is not retained.
func New(p [][]float64) (*Chain, error) {
	n := len(p)
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return NewSparse(n, n*n, func(k int) (int, int, float64) { return k / n, k % n, p[k/n][k%n] })
}

// NewSparse builds an n-state chain from m transitions: edge(k)
// returns the k-th as (from, to, probability), the same on every call,
// for it is called more than once per transition. Probabilities of a
// repeated (from, to) pair are added in list order, and every row must
// sum to 1.
func NewSparse(n, m int, edge func(k int) (from, to int, p float64)) (*Chain, error) {
	if n <= 0 {
		return nil, errors.New("markov: empty chain")
	}
	for k := 0; k < m; k++ {
		from, to, p := edge(k)
		if from < 0 || from >= n || to < 0 || to >= n {
			return nil, fmt.Errorf("%w: transition (%d,%d) in a %d-state chain", ErrBadState, from, to, n)
		}
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("%w: entry (%d,%d) = %v", ErrNotStochastic, from, to, p)
		}
	}
	c := compress(n, m, edge)
	// Sort each row by column with a stable insertion sort (rows are
	// short, and already sorted when they come from New), then add up
	// repeated columns left to right, compacting in place.
	w, lo := 0, 0
	for i := 0; i < n; i++ {
		hi := c.start[i+1]
		col, p := c.col[lo:hi], c.p[lo:hi]
		for k := 1; k < len(col); k++ {
			for j := k; j > 0 && col[j-1] > col[j]; j-- {
				col[j-1], col[j] = col[j], col[j-1]
				p[j-1], p[j] = p[j], p[j-1]
			}
		}
		c.start[i] = w
		var sum float64
		for k, j := range col {
			if w > c.start[i] && c.col[w-1] == j {
				c.p[w-1] += p[k]
			} else {
				c.col[w], c.p[w] = j, p[k]
				w++
			}
			sum += p[k]
		}
		if math.Abs(sum-1) > rowSumTolerance {
			return nil, fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, sum)
		}
		lo = hi
	}
	c.start[n] = w
	c.col, c.p = c.col[:w], c.p[:w]
	return c, nil
}

// compress groups m transitions by their from state, in list order
// within each row, and drops those of probability zero.
func compress(n, m int, edge func(k int) (from, to int, p float64)) *Chain {
	c := &Chain{start: make([]int, n+1)}
	for k := 0; k < m; k++ {
		if from, _, p := edge(k); p != 0 {
			c.start[from+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.start[i+1] += c.start[i]
	}
	c.col, c.p = make([]int, c.start[n]), make([]float64, c.start[n])
	fill := append([]int(nil), c.start[:n]...)
	for k := 0; k < m; k++ {
		if from, to, p := edge(k); p != 0 {
			c.col[fill[from]], c.p[fill[from]] = to, p
			fill[from]++
		}
	}
	return c
}

// N returns the number of states.
func (c *Chain) N() int { return len(c.start) - 1 }

// P returns the transition probability from state i to state j.
func (c *Chain) P(i, j int) float64 {
	col, p := c.Row(i)
	k := sort.SearchInts(col, j)
	if k < len(col) && col[k] == j {
		return p[k]
	}
	return 0
}

// Row returns the successors of state i in increasing order and the
// probabilities of moving to them. The slices alias the chain's
// storage and must not be modified.
func (c *Chain) Row(i int) (to []int, p []float64) {
	lo, hi := c.start[i], c.start[i+1]
	return c.col[lo:hi], c.p[lo:hi]
}

// transpose returns Pᵀ in the same compressed-row form: row i lists
// the predecessors of state i in increasing order.
func (c *Chain) transpose() *Chain {
	from := make([]int, len(c.col))
	for i := 0; i < c.N(); i++ {
		for k := c.start[i]; k < c.start[i+1]; k++ {
			from[k] = i
		}
	}
	return compress(c.N(), len(c.col), func(k int) (int, int, float64) { return c.col[k], from[k], c.p[k] })
}

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
		col, p := c.Row(i)
		for k, j := range col {
			out[j] += qi * p[k]
		}
	}
	return out, nil
}

// Irreducible reports whether the chain's underlying digraph is
// strongly connected: every state reachable from every other.
func (c *Chain) Irreducible() bool {
	return reachesAll(c) && reachesAll(c.transpose())
}

// reachesAll reports whether every state of c is reachable from state
// 0 along c's edges.
func reachesAll(c *Chain) bool {
	seen := make([]bool, c.N())
	seen[0] = true
	reached := 1
	stack := []int{0}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		col, _ := c.Row(u)
		for _, v := range col {
			if !seen[v] {
				seen[v] = true
				reached++
				stack = append(stack, v)
			}
		}
	}
	return reached == c.N()
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
		col, _ := c.Row(u)
		for _, v := range col {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	g := 0
	for u := 0; u < n; u++ {
		col, _ := c.Row(u)
		for _, v := range col {
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
	// A = Pᵀ − I with the last row replaced by the normalization
	// constraint Σ π_i = 1, all ones: one column and a tail of ones.
	// Row i of A is column i of P, so it spans state i and its
	// predecessors.
	pt := c.transpose()
	a := make([]envRow, n)
	for i := 0; i < n-1; i++ {
		col, p := pt.Row(i)
		lo, hi := i, i+1
		if len(col) > 0 {
			lo, hi = min(lo, col[0]), max(hi, col[len(col)-1]+1)
		}
		a[i] = envRow{lo: lo, v: make([]float64, hi-lo)}
		for k, j := range col {
			a[i].v[j-lo] = p[k]
		}
		a[i].v[i-lo] -= 1
	}
	a[n-1] = envRow{lo: 0, v: []float64{1}, c: 1}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := solveEnvelope(a, b)
	if err != nil {
		return nil, fmt.Errorf("stationary solve: %w", err)
	}
	return normalizeStationary(pi)
}

// normalizeStationary clears tiny negative round-off from a solved π
// and rescales it to sum to 1.
func normalizeStationary(pi []float64) ([]float64, error) {
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
	// Solve (I − Q) h = 1 where Q drops row and column target; reduced
	// index r stands for state r below target and r+1 from it on.
	reduced := func(j int) int {
		if j > target {
			return j - 1
		}
		return j
	}
	m := n - 1
	a := make([]envRow, m)
	b := make([]float64, m)
	for r := range a {
		i := r
		if r >= target {
			i++
		}
		col, p := c.Row(i)
		lo, hi := r, r+1
		for _, j := range col {
			if j != target {
				lo, hi = min(lo, reduced(j)), max(hi, reduced(j)+1)
			}
		}
		a[r] = envRow{lo: lo, v: make([]float64, hi-lo)}
		for k, j := range col {
			if j != target {
				a[r].v[reduced(j)-lo] = -p[k]
			}
		}
		a[r].v[r-lo] += 1
		b[r] = 1
	}
	h, err := solveEnvelope(a, b)
	if err != nil {
		return nil, fmt.Errorf("hitting times: %w", err)
	}
	out := make([]float64, n)
	copy(out, h[:target])
	copy(out[target+1:], h[target:])
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
	col, p := c.Row(j)
	for k, pjk := range p {
		ret += pjk * h[col[k]]
	}
	return ret, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
