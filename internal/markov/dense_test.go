package markov

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pwf/internal/rng"
)

// solveDense solves A x = b by Gaussian elimination with partial
// pivoting. A and b are overwritten; the solution is returned in a new
// slice. A must be square and len(b) == len(A). It is the oracle that
// solveEnvelope must reproduce bit for bit.
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

// denseStationary is StationarySolve over a dense A = Pᵀ − I.
func denseStationary(c *Chain) ([]float64, error) {
	if !c.Irreducible() {
		return nil, ErrNotIrreducible
	}
	n := c.N()
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = c.P(j, i)
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	pi, err := solveDense(a, b)
	if err != nil {
		return nil, err
	}
	return normalizeStationary(pi)
}

// denseHittingTimes is HittingTimes over a dense I − Q.
func denseHittingTimes(c *Chain, target int) ([]float64, error) {
	n := c.N()
	if n == 1 {
		return []float64{0}, nil
	}
	m := n - 1
	idx := make([]int, 0, m)
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
			a[r][ccol] = -c.P(i, j)
		}
		a[r][r] += 1
		b[r] = 1
	}
	h, err := solveDense(a, b)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for r, i := range idx {
		out[i] = h[r]
	}
	return out, nil
}

// envelopeOf stores a dense matrix as envelope rows: each row keeps
// the columns from its first to its last non-zero entry.
func envelopeOf(d [][]float64) []envRow {
	rows := make([]envRow, len(d))
	for i, row := range d {
		lo, hi := 0, 0
		for j, v := range row {
			if v != 0 {
				if hi == 0 {
					lo = j
				}
				hi = j + 1
			}
		}
		rows[i] = envRow{lo: lo, v: append([]float64(nil), row[lo:hi]...)}
	}
	return rows
}

func copyDense(d [][]float64) [][]float64 {
	out := make([][]float64, len(d))
	for i, row := range d {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// sameBits reports the first index where got and want differ in their
// bits, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func TestSolveDense(t *testing.T) {
	// 2x + y = 5, x - y = 1 → x = 2, y = 1.
	x, err := solveDense([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solution = %v, want [2 1]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	if _, err := solveDense([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("singular system: %v", err)
	}
}

func TestSolveDenseValidation(t *testing.T) {
	if _, err := solveDense(nil, nil); err == nil {
		t.Error("empty: nil error")
	}
	if _, err := solveDense([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("rhs mismatch: nil error")
	}
	if _, err := solveDense([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square: nil error")
	}
}

func TestSolveEnvelope(t *testing.T) {
	// 2x + y = 5, x - y = 1 → x = 2, y = 1.
	x, err := solveEnvelope([]envRow{{0, []float64{2, 1}, 0}, {0, []float64{1, -1}, 0}}, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solution = %v, want [2 1]", x)
	}
}

func TestSolveEnvelopeSingular(t *testing.T) {
	for name, a := range map[string][]envRow{
		"dependent rows": {{0, []float64{1, 1}, 0}, {0, []float64{2, 2}, 0}},
		"empty row":      {{0, []float64{1, 1}, 0}, {1, nil, 0}},
		"empty column":   {{1, []float64{1}, 0}, {1, []float64{2}, 0}},
	} {
		if _, err := solveEnvelope(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSolveEnvelopeValidation(t *testing.T) {
	if _, err := solveEnvelope(nil, nil); err == nil {
		t.Error("empty: nil error")
	}
	if _, err := solveEnvelope([]envRow{{0, []float64{1}, 0}}, []float64{1, 2}); err == nil {
		t.Error("rhs mismatch: nil error")
	}
	if _, err := solveEnvelope([]envRow{{0, []float64{1, 2}, 0}}, []float64{1}); err == nil {
		t.Error("row wider than the system: nil error")
	}
	if _, err := solveEnvelope([]envRow{{-1, []float64{1}, 0}}, []float64{1}); err == nil {
		t.Error("row before column 0: nil error")
	}
}

// TestSolveEnvelopeMatchesDenseBits solves random sparse systems by
// both eliminations and compares the bits. Each system has one
// full-width row. When its entries are large, it leads column 0 and is
// the first pivot, and its fill-in widens every row it touches, so the
// later pivots are full-width too; when they are small, it becomes the
// pivot only after fill-in. Entries drawn on a coarse grid make ties in
// the pivot search.
func TestSolveEnvelopeMatchesDenseBits(t *testing.T) {
	src := rng.New(2014)
	wide := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(40)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			d[i][i] = float64(1+src.Intn(8)) / 8
			for k := src.Intn(4); k > 0; k-- {
				d[i][src.Intn(n)] = float64(src.Intn(17)-8) / 8
			}
		}
		full := src.Intn(n)
		scale := []float64{1.0 / 16, 1, 2, 3}[src.Intn(4)]
		for j := range d[full] {
			d[full][j] = scale * (1 + src.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = src.Float64()
		}
		want, wantErr := solveDense(copyDense(d), append([]float64(nil), b...))
		got, err := solveEnvelope(envelopeOf(d), append([]float64(nil), b...))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: envelope error %v, dense error %v", trial, err, wantErr)
		}
		if err != nil {
			continue
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("trial %d (n=%d): x[%d] = %v, dense %v", trial, n, i, got[i], want[i])
		}
		wide++
	}
	if wide < 200 {
		t.Fatalf("only %d of 300 random systems were solvable", wide)
	}
}

// denseOf writes envelope rows out as a dense n×n matrix, tails in full.
func denseOf(rows []envRow, n int) [][]float64 {
	d := make([][]float64, len(rows))
	for i, r := range rows {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = r.at(j)
		}
	}
	return d
}

// solveBoth solves the system by both eliminations and reports a
// difference in the outcome or in the bits of the solution.
func solveBoth(rows []envRow, b []float64) (solved bool, err error) {
	n := len(rows)
	want, wantErr := solveDense(denseOf(rows, n), append([]float64(nil), b...))
	got, gotErr := solveEnvelope(rows, append([]float64(nil), b...))
	if (gotErr == nil) != (wantErr == nil) {
		return false, fmt.Errorf("envelope error %v, dense error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return false, nil
	}
	if i := sameBits(got, want); i >= 0 {
		return false, fmt.Errorf("x[%d] = %v, dense %v", i, got[i], want[i])
	}
	return true, nil
}

// TestSolveEnvelopeConstantTailMatchesDenseBits gives random sparse
// systems one to three rows with a constant tail, as the normalization
// row of a stationary solve has, and compares the bits with the dense
// solve of the same rows written out in full. Entries and tails drawn
// on a coarse grid make ties in the pivot search and tails that cancel.
func TestSolveEnvelopeConstantTailMatchesDenseBits(t *testing.T) {
	for name, tc := range map[string]struct {
		rows []envRow
		err  error
	}{
		// Row 0 cancels row 1's tail at column 0; row 1 then pivots
		// with its trailing zero trimmed and leaves row 2's tail.
		"tail cancels to zero": {rows: []envRow{
			{0, []float64{2}, 1},
			{0, []float64{1, 1, 0.5}, 0.5},
			{1, []float64{0.25, 1}, 0.25},
			{3, []float64{1}, 0},
			{4, []float64{1}, 0},
		}},
		// Row 2 keeps its one-column envelope through the update at
		// column 0 and wins column 1 from its tail.
		"one-column envelope": {rows: []envRow{
			{0, []float64{2}, 0},
			{1, []float64{1, 3}, 0},
			{0, []float64{1}, 2},
			{3, []float64{1}, 0},
		}},
		"singular": {rows: []envRow{
			{0, []float64{1}, 1},
			{1, []float64{1}, 0},
			{0, []float64{2, 2}, 2},
		}, err: ErrSingular},
	} {
		b := []float64{1, 2, 3, 4, 5}[:len(tc.rows)]
		if tc.err != nil {
			if _, err := solveEnvelope(tc.rows, b); !errors.Is(err, tc.err) {
				t.Errorf("%s: %v, want %v", name, err, tc.err)
			}
			continue
		}
		if ok, err := solveBoth(tc.rows, b); !ok {
			t.Errorf("%s: not solved: %v", name, err)
		}
	}
	// A tail on a row with no envelope would never enter the active
	// set.
	if _, err := solveEnvelope([]envRow{{0, []float64{1}, 0}, {1, nil, 1}}, []float64{1, 2}); err == nil || errors.Is(err, ErrSingular) {
		t.Errorf("tail without an envelope: %v", err)
	}

	src := rng.New(2016)
	solved := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(40)
		rows := make([]envRow, n)
		for i := range rows {
			row := make([]float64, n)
			row[i] = float64(1+src.Intn(8)) / 8
			for k := src.Intn(4); k > 0; k-- {
				row[src.Intn(n)] = float64(src.Intn(17)-8) / 8
			}
			rows[i] = envelopeOf([][]float64{row})[0]
		}
		scale := []float64{1.0 / 16, 1, 2, 3}[src.Intn(4)]
		for k := 1 + src.Intn(3); k > 0; k-- {
			lo := src.Intn(n)
			v := make([]float64, 1+src.Intn(min(4, n-lo)))
			for j := range v {
				v[j] = float64(src.Intn(17)-8) / 8
			}
			c := scale * float64(1+src.Intn(8)) / 8
			if src.Intn(2) == 0 {
				c = -c
			}
			rows[src.Intn(n)] = envRow{lo: lo, v: v, c: c}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = src.Float64()
		}
		ok, err := solveBoth(rows, b)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if ok {
			solved++
		}
	}
	if solved < 200 {
		t.Fatalf("only %d of 300 random systems were solvable", solved)
	}
}
