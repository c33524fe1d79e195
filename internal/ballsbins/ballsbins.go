// Package ballsbins implements the iterated balls-into-bins game of
// Section 6.1.3, which the paper uses to bound the system latency of
// the scan-validate pattern.
//
// Each process is a bin. At the start of the game every bin holds one
// ball. Each step throws a ball into a uniformly random bin; the
// current *phase* ends the first time some bin reaches three balls
// (that process's winning CAS). At the reset, the three-ball bin goes
// back to one ball (the winner is about to read again) and every
// two-ball bin is emptied (processes that were about to CAS with the
// now-stale value need three more steps).
//
// Ball counts map to the extended local states of Section 6.1.1:
// 0 balls = OldCAS (three steps from completing), 1 ball = Read (two
// steps), 2 balls = CCAS (one step). The game therefore evolves
// exactly like the system Markov chain, and the expected phase length
// equals the system latency W — tests cross-check this against the
// exact chain.
//
// The phase-length bounds of Lemma 8 and the range dynamics of
// Lemma 9 are exposed as PhaseLengthBound and RangeOf.
package ballsbins

import (
	"errors"
	"fmt"
	"math"

	"pwf/internal/rng"
)

// Game construction errors.
var (
	ErrBadN   = errors.New("ballsbins: need at least one bin")
	ErrNilRNG = errors.New("ballsbins: nil rng source")
)

// Game is the iterated balls-into-bins process.
type Game struct {
	n     int
	src   *rng.Source
	balls []int

	phases uint64
	throws uint64
}

// New builds a game with n bins, each holding one ball.
func New(n int, src *rng.Source) (*Game, error) {
	if n < 1 {
		return nil, ErrBadN
	}
	if src == nil {
		return nil, ErrNilRNG
	}
	balls := make([]int, n)
	for i := range balls {
		balls[i] = 1
	}
	return &Game{n: n, src: src, balls: balls}, nil
}

// N returns the number of bins.
func (g *Game) N() int { return g.n }

// A returns the number of bins holding exactly one ball (processes
// about to read): the a_i of Section 6.1.3 when queried at a phase
// boundary.
func (g *Game) A() int {
	a := 0
	for _, b := range g.balls {
		if b == 1 {
			a++
		}
	}
	return a
}

// B returns the number of empty bins (processes about to CAS with a
// stale value).
func (g *Game) B() int {
	b := 0
	for _, v := range g.balls {
		if v == 0 {
			b++
		}
	}
	return b
}

// Phases returns the number of completed phases.
func (g *Game) Phases() uint64 { return g.phases }

// Throws returns the total number of balls thrown.
func (g *Game) Throws() uint64 { return g.throws }

// PhaseResult describes one completed phase.
type PhaseResult struct {
	// Length is the number of throws in the phase.
	Length uint64
	// AStart and BStart are the bin counts at the start of the phase
	// (AStart + BStart = n).
	AStart, BStart int
	// Winner is the bin that reached three balls.
	Winner int
}

// RunPhase plays throws until some bin reaches three balls, applies
// the reset, and reports the phase.
func (g *Game) RunPhase() PhaseResult {
	res := PhaseResult{AStart: g.A(), BStart: g.B()}
	for {
		bin := g.src.Intn(g.n)
		g.throws++
		res.Length++
		g.balls[bin]++
		if g.balls[bin] < 3 {
			continue
		}
		// Reset: winner back to one ball; two-ball bins emptied.
		g.balls[bin] = 1
		for i := range g.balls {
			if g.balls[i] == 2 {
				g.balls[i] = 0
			}
		}
		g.phases++
		res.Winner = bin
		return res
	}
}

// RunPhases plays k consecutive phases and returns their results.
func (g *Game) RunPhases(k int) []PhaseResult {
	out := make([]PhaseResult, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, g.RunPhase())
	}
	return out
}

// CheckInvariant verifies that, at a phase boundary, every bin holds
// zero or one ball (i.e. A + B = n). It is used by tests and the
// failure-injection suite.
func (g *Game) CheckInvariant() error {
	for i, b := range g.balls {
		if b != 0 && b != 1 {
			return fmt.Errorf("ballsbins: bin %d holds %d balls at phase boundary", i, b)
		}
	}
	if g.A()+g.B() != g.n {
		return fmt.Errorf("ballsbins: a+b = %d, want %d", g.A()+g.B(), g.n)
	}
	return nil
}

// Range classification of Lemma 9: a phase with a starting one-ball
// bins is in range 1 when a >= n/3, range 2 when n/c <= a < n/3, and
// range 3 when a < n/c, for the constant c >= 3.
const DefaultRangeC = 10

// RangeOf returns 1, 2 or 3 for the phase-start value a (see Lemma 9).
func RangeOf(a, n int, c float64) (int, error) {
	if n < 1 || a < 0 || a > n {
		return 0, fmt.Errorf("ballsbins: invalid a=%d n=%d", a, n)
	}
	if c < 3 {
		return 0, errors.New("ballsbins: range constant c must be >= 3")
	}
	fa := float64(a)
	fn := float64(n)
	switch {
	case fa >= fn/3:
		return 1, nil
	case fa >= fn/c:
		return 2, nil
	default:
		return 3, nil
	}
}

// PhaseLengthBound returns the Lemma 8 expected phase-length bound
// min(2αn/√a, 3αn/b^(1/3)), treating an operand with a = 0 or b = 0
// as +Inf (its event cannot happen).
func PhaseLengthBound(a, b, n int, alpha float64) (float64, error) {
	if n < 1 || a < 0 || b < 0 || a+b > n {
		return 0, fmt.Errorf("ballsbins: invalid a=%d b=%d n=%d", a, b, n)
	}
	if alpha < 4 {
		return 0, errors.New("ballsbins: Lemma 8 requires alpha >= 4")
	}
	fn := float64(n)
	first := math.Inf(1)
	if a > 0 {
		first = 2 * alpha * fn / math.Sqrt(float64(a))
	}
	second := math.Inf(1)
	if b > 0 {
		second = 3 * alpha * fn / math.Cbrt(float64(b))
	}
	return math.Min(first, second), nil
}
