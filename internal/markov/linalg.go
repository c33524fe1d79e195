package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("markov: singular linear system")

// envRow is one row of a sparse linear system: it holds the columns
// [lo, lo+len(v)), its envelope, every column from lo+len(v) on is c,
// its tail, and every column before lo is zero.
type envRow struct {
	lo int
	v  []float64
	c  float64
}

// at returns the row's entry in column col.
func (r *envRow) at(col int) float64 {
	switch {
	case col < r.lo:
		return 0
	case col >= r.lo+len(r.v):
		return r.c
	}
	return r.v[col-r.lo]
}

// widen extends the row's envelope to column end, filling the new
// columns from its tail.
func (r *envRow) widen(end int) {
	for k := r.lo + len(r.v); k < end; k++ {
		r.v = append(r.v, r.c)
	}
}

// solveEnvelope solves A x = b by Gaussian elimination with partial
// pivoting, where row i of A is a[i]. A and b are overwritten; the
// solution is returned in a new slice.
//
// It makes the pivot choices and floating-point operations of dense
// elimination (pick the first row, in row order, with the largest
// |entry| in the pivot column; subtract f·pivot row from every row
// below it with f ≠ 0; back-substitute in increasing column order) in
// the same order, and skips only the products with a zero entry outside
// a row's envelope. For finite f, x − f·0 = x for every nonzero x, so a
// skipped product changes at most the sign of a zero, and every nonzero
// entry and solution component has the dense solve's bits. A row with a
// zero in the pivot column never wins the pivot search and is not
// updated, so only the rows whose envelope or tail covers the pivot
// column are visited; partial pivoting keeps |f| ≤ 1.
//
// The columns of a row's tail hold the same value and, as long as the
// row's envelope reaches at least as far as the pivot row's, get the
// same operation x − f·c on the same operands, so one number holds them
// all with the dense bits. That is the fill-in of a full-width row such
// as the normalization row of a stationary solve: a row it updates
// widens only to the pivot row's envelope and keeps the rest as a tail.
func solveEnvelope(a []envRow, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("markov: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("markov: dimension mismatch: %d rows, %d rhs", n, len(b))
	}
	// Rows keep their index in a (and b); at[k] is the row now at
	// position k and pos its inverse, so a row swap is two writes.
	at := make([]int, n)
	pos := make([]int, n)
	// enter lists the rows by the first column of their envelope.
	enter := make([]int, 0, n)
	for i := range a {
		if a[i].lo < 0 || a[i].lo+len(a[i].v) > n {
			return nil, fmt.Errorf("markov: row %d spans columns [%d,%d) of %d",
				i, a[i].lo, a[i].lo+len(a[i].v), n)
		}
		at[i], pos[i] = i, i
		if len(a[i].v) > 0 {
			enter = append(enter, i)
		} else if a[i].c != 0 {
			return nil, fmt.Errorf("markov: row %d has a tail but no envelope", i)
		}
	}
	sort.Slice(enter, func(x, y int) bool { return a[enter[x]].lo < a[enter[y]].lo })

	// active holds the unfinished rows whose envelope or tail covers
	// the current column; every other unfinished row is zero there.
	var active []int
	for col := 0; col < n; col++ {
		for len(enter) > 0 && a[enter[0]].lo <= col {
			active = append(active, enter[0])
			enter = enter[1:]
		}
		// The first position with the largest |entry|, as a scan from
		// position col in row order finds it.
		piv := at[col]
		best := math.Abs(a[piv].at(col))
		for _, i := range active {
			if v := math.Abs(a[i].at(col)); v > best || v == best && pos[i] < pos[piv] {
				best, piv = v, i
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if other := at[col]; other != piv {
			at[col], at[pos[piv]] = piv, other
			pos[other], pos[piv] = pos[piv], col
		}

		// Trim the pivot row's trailing zeros, so they do not widen
		// every row it updates; a nonzero tail follows them.
		p := &a[piv]
		p.widen(col + 1)
		for p.c == 0 && len(p.v) > col+1-p.lo && p.v[len(p.v)-1] == 0 {
			p.v = p.v[:len(p.v)-1]
		}
		hi := p.lo + len(p.v)
		inv := 1 / p.v[col-p.lo]
		tail := p.v[col+1-p.lo:]
		keep := active[:0]
		for _, i := range active {
			if i == piv {
				continue
			}
			r := &a[i]
			if f := r.at(col) * inv; f != 0 {
				r.widen(hi)
				r.v[col-r.lo] = 0
				rv := r.v[col+1-r.lo:]
				for k, x := range tail {
					rv[k] -= f * x
				}
				if p.c != 0 {
					for k := len(tail); k < len(rv); k++ {
						rv[k] -= f * p.c
					}
					r.c -= f * p.c
				}
				b[i] -= f * b[piv]
			}
			if r.lo+len(r.v) > col+1 || r.c != 0 {
				keep = append(keep, i)
			}
		}
		active = keep
	}

	// Back substitution.
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		r := &a[at[k]]
		sum := b[at[k]]
		for c := k + 1; c < r.lo+len(r.v); c++ {
			sum -= r.v[c-r.lo] * x[c]
		}
		for c := max(k+1, r.lo+len(r.v)); r.c != 0 && c < n; c++ {
			sum -= r.c * x[c]
		}
		x[k] = sum / r.v[k-r.lo]
	}
	return x, nil
}
