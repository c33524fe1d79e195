package markov

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("markov: singular linear system")

// solveDense solves A x = b by Gaussian elimination with partial
// pivoting. A and b are overwritten; the solution is returned in a new
// slice. A must be square and len(b) == len(A).
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("markov: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("markov: dimension mismatch: %d rows, %d rhs", n, len(b))
	}
	for _, row := range a {
		if len(row) != n {
			return nil, errors.New("markov: non-square matrix")
		}
	}

	// Forward elimination with partial pivoting.
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			a[col], a[pivot] = a[pivot], a[col]
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}

	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}
