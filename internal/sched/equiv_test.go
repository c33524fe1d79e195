package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pwf/internal/rng"
	"pwf/internal/stats"
)

// These tests establish that the constant-time sampling paths (dense
// active set, alias tables, Fenwick tree) draw from the same
// distributions as the naive O(n) reference samplers they replaced
// (naiveNext, in naive_test.go), including under arbitrary crash and
// ticket-transfer sequences. Each equivalence is a two-sample
// chi-square at p = 0.001 between counts from a fast-path instance and
// a naive-path instance with independent seeds; quick sources are
// pinned so the statistical tests are deterministic.

// quickCfg returns a deterministic quick config for statistical
// property tests.
func quickCfg(trials int) *quick.Config {
	return &quick.Config{MaxCount: trials, Rand: rand.New(rand.NewSource(99))}
}

// chiEquiv runs draws through fast and naive and rejects if the two
// count vectors are distinguishable at p = 0.001.
func chiEquiv(t *testing.T, n, draws int, fast, naive func() (int, error)) {
	t.Helper()
	fastCounts := make([]int, n)
	naiveCounts := make([]int, n)
	for i := 0; i < draws; i++ {
		pid, err := fast()
		if err != nil {
			t.Fatal(err)
		}
		fastCounts[pid]++
		pid, err = naive()
		if err != nil {
			t.Fatal(err)
		}
		naiveCounts[pid]++
	}
	stat, dof, err := stats.ChiSquareTwoSample(fastCounts, naiveCounts)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(dof); stat > crit {
		t.Fatalf("fast and naive samplers differ: chi2=%v > %v\nfast=%v\nnaive=%v",
			stat, crit, fastCounts, naiveCounts)
	}
}

// crashSome applies an identical pseudo-random crash sequence to both
// schedulers, keeping at least one process alive.
func crashSome(t *testing.T, n int, seed uint64, a, b Crasher) {
	t.Helper()
	src := rng.New(seed)
	for i := 0; i < n/2; i++ {
		pid := src.Intn(n)
		errA := a.Crash(pid)
		errB := b.Crash(pid)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("crash(%d) disagreement: %v vs %v", pid, errA, errB)
		}
	}
}

func TestUniformEquivalenceUnderCrashes(t *testing.T) {
	const n = 16
	fast := mustUniform(t, n, 101)
	naive := mustUniform(t, n, 202)
	crashSome(t, n, 7, fast, naive)
	chiEquiv(t, n, 100000, fast.Next, naiveNext(naive))
}

func TestWeightedEquivalenceUnderCrashes(t *testing.T) {
	const n = 16
	src := rng.New(5)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.5 + src.Float64()*4
	}
	fast, err := NewWeighted(weights, rng.New(303))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewWeighted(weights, rng.New(404))
	if err != nil {
		t.Fatal(err)
	}
	crashSome(t, n, 8, fast, naive)
	chiEquiv(t, n, 100000, fast.Next, naiveNext(naive))
}

func TestLotteryEquivalenceUnderCrashesAndTransfers(t *testing.T) {
	const n = 16
	tickets := make([]int, n)
	src := rng.New(6)
	for i := range tickets {
		tickets[i] = 1 + src.Intn(9)
	}
	fast, err := NewLottery(tickets, rng.New(505))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewLottery(tickets, rng.New(606))
	if err != nil {
		t.Fatal(err)
	}
	crashSome(t, n, 9, fast, naive)
	// Interleave transfers (to dead and live holders alike) with the
	// measurement to exercise the Fenwick update path.
	for round := 0; round < 4; round++ {
		pid := src.Intn(n)
		amount := 1 + src.Intn(12)
		if err := fast.SetTickets(pid, amount); err != nil {
			t.Fatal(err)
		}
		if err := naive.SetTickets(pid, amount); err != nil {
			t.Fatal(err)
		}
		chiEquiv(t, n, 25000, fast.Next, naiveNext(naive))
	}
}

func TestStickyEquivalenceUnderCrashes(t *testing.T) {
	const n = 16
	fast, err := NewSticky(n, 0.7, rng.New(707))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewSticky(n, 0.7, rng.New(808))
	if err != nil {
		t.Fatal(err)
	}
	crashSome(t, n, 10, fast, naive)
	// Sticky draws are Markov-correlated (a run of repeats inflates
	// the chi-square variance by ~(1+ρ)/(1-ρ)), so thin the chain:
	// count every 16th draw, at which lag the autocorrelation
	// ρ^16 ≈ 3e-3 is negligible and the i.i.d. chi-square null holds.
	thin := func(next func() (int, error)) func() (int, error) {
		return func() (int, error) {
			for i := 0; i < 15; i++ {
				if _, err := next(); err != nil {
					return 0, err
				}
			}
			return next()
		}
	}
	chiEquiv(t, n, 40000, thin(fast.Next), thin(naiveNext(naive)))
}

func TestPhasedEquivalenceUnderCrashes(t *testing.T) {
	const n = 12
	phases := []Phase{
		{Weights: ramp(n, 1, 1), Steps: 3},
		{Weights: ramp(n, float64(n), -1), Steps: 5},
	}
	fast, err := NewPhased(n, phases, rng.New(909))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewPhased(n, phases, rng.New(1010))
	if err != nil {
		t.Fatal(err)
	}
	crashSome(t, n, 11, fast, naive)
	chiEquiv(t, n, 100000, fast.Next, naiveNext(naive))
}

// ramp returns n weights starting at start with the given step.
func ramp(n int, start, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// TestLotterySequenceMatchesNaive pins a stronger property than
// distributional equivalence: both lookups, the ticket→holder table
// and the Fenwick inverse-CDF search, resolve winning tickets in id
// order exactly as the linear scan did, so for identical rng states
// the rewritten Lottery reproduces the naive pid sequence
// element-for-element — through crashes and transfers. Holdings scaled
// by holderTableMax keep the active total above it, which selects the
// tree; unscaled ones keep it below, which selects the table.
func TestLotterySequenceMatchesNaive(t *testing.T) {
	const n = 32
	for _, tc := range []struct {
		name  string
		scale int
		table bool
	}{{"table", 1, true}, {"fenwick", holderTableMax, false}} {
		t.Run(tc.name, func(t *testing.T) {
			tickets := make([]int, n)
			src := rng.New(13)
			for i := range tickets {
				tickets[i] = tc.scale * (1 + src.Intn(7))
			}
			fast, err := NewLottery(tickets, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NewLottery(tickets, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			mutate := func(round int) {
				switch round % 3 {
				case 0:
					pid := src.Intn(n)
					errF, errN := fast.Crash(pid), naive.Crash(pid)
					if (errF == nil) != (errN == nil) {
						t.Fatalf("crash disagreement at %d: %v vs %v", pid, errF, errN)
					}
				case 1:
					pid, amount := src.Intn(n), tc.scale*(1+src.Intn(10))
					if err := fast.SetTickets(pid, amount); err != nil {
						t.Fatal(err)
					}
					if err := naive.SetTickets(pid, amount); err != nil {
						t.Fatal(err)
					}
				}
			}
			naiveDraw := naiveNext(naive)
			for round := 0; round < 12; round++ {
				mutate(round)
				if table := len(fast.holders) != 0; table != tc.table {
					t.Fatalf("round %d: active total %d, table in use %v", round, fast.activeTotal, table)
				}
				for i := 0; i < 500; i++ {
					got, err := fast.Next()
					if err != nil {
						t.Fatal(err)
					}
					want, err := naiveDraw()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("round %d draw %d: fast=%d naive=%d", round, i, got, want)
					}
				}
			}
		})
	}
}

// TestUniformCrashFreeSequenceMatchesNaive: before any crash the
// dense active set is the identity list, so the O(1) path consumes
// the rng identically to the old fast path and existing seeds
// reproduce their crash-free schedules unchanged.
func TestUniformCrashFreeSequenceMatchesNaive(t *testing.T) {
	fast := mustUniform(t, 9, 2024)
	naiveDraw := naiveNext(mustUniform(t, 9, 2024))
	for i := 0; i < 5000; i++ {
		got, err := fast.Next()
		if err != nil {
			t.Fatal(err)
		}
		want, err := naiveDraw()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("draw %d: fast=%d naive=%d", i, got, want)
		}
	}
}

func TestQuickFastSamplersNeverScheduleCrashed(t *testing.T) {
	// Property: after any sequence of valid crashes and transfers,
	// none of the rewritten samplers ever schedules a dead process.
	f := func(seed uint64, crashes []uint8) bool {
		const n = 8
		src := rng.New(seed)
		weights := make([]float64, n)
		tickets := make([]int, n)
		for i := range weights {
			weights[i] = 1 + src.Float64()
			tickets[i] = 1 + src.Intn(4)
		}
		u, err1 := NewUniform(n, rng.New(seed^1))
		w, err2 := NewWeighted(weights, rng.New(seed^2))
		l, err3 := NewLottery(tickets, rng.New(seed^3))
		s, err4 := NewSticky(n, 0.6, rng.New(seed^4))
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		for _, c := range crashes {
			pid := int(c % n)
			_ = u.Crash(pid)
			_ = w.Crash(pid)
			_ = l.Crash(pid)
			_ = s.Crash(pid)
			_ = l.SetTickets(int(c%n), 1+int(c%5))
		}
		for i := 0; i < 64; i++ {
			for _, sc := range []struct {
				next    func() (int, error)
				correct func(int) bool
			}{
				{u.Next, u.Correct},
				{w.Next, w.Correct},
				{l.Next, l.Correct},
				{s.Next, s.Correct},
			} {
				pid, err := sc.next()
				if err != nil || !sc.correct(pid) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedCrashRebuildAllocFree(t *testing.T) {
	// The alias rebuild on crash reuses the table's buffers: after the
	// first rebuild, further crashes must not allocate.
	const n = 64
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	w, err := NewWeighted(weights, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Crash(0); err != nil {
		t.Fatal(err)
	}
	next := 1
	allocs := testing.AllocsPerRun(16, func() {
		if err := w.Crash(next); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("crash rebuild allocated %v/op, want 0", allocs)
	}
}

func TestSchedulerNextZeroAllocs(t *testing.T) {
	const n = 256
	weights := make([]float64, n)
	tickets := make([]int, n)
	for i := range weights {
		weights[i] = float64(i + 1)
		tickets[i] = i%7 + 1
	}
	u := mustUniform(t, n, 1)
	w, err := NewWeighted(weights, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLottery(tickets, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSticky(n, 0.8, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPhased(n, []Phase{{Weights: weights, Steps: 10}}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Crash a few processes so the crash-mode paths are the ones
	// measured.
	for pid := 0; pid < 8; pid++ {
		for _, c := range []Crasher{u, w, l, s, p} {
			if err := c.Crash(pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, next := range map[string]func() (int, error){
		"uniform": u.Next, "weighted": w.Next, "lottery": l.Next,
		"sticky": s.Next, "phased": p.Next,
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Next allocated %v/op in crash mode, want 0", name, allocs)
		}
	}
}
