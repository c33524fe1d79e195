package sched

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pwf/internal/rng"
	"pwf/internal/stats"
)

func mustUniform(t *testing.T, n int, seed uint64) *Uniform {
	t.Helper()
	u, err := NewUniform(n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniformRange(t *testing.T) {
	u := mustUniform(t, 8, 1)
	for i := 0; i < 1000; i++ {
		pid, err := u.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid < 0 || pid >= 8 {
			t.Fatalf("pid %d out of range", pid)
		}
	}
}

func TestUniformFairness(t *testing.T) {
	const (
		n     = 10
		steps = 200000
	)
	u := mustUniform(t, n, 2)
	counts := make([]int, n)
	for i := 0; i < steps; i++ {
		pid, err := u.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[pid]++
	}
	stat, dof, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(dof); stat > crit {
		t.Fatalf("uniform scheduler not uniform: chi2=%v > %v, counts=%v", stat, crit, counts)
	}
}

func TestUniformThreshold(t *testing.T) {
	u := mustUniform(t, 4, 3)
	if got := u.Threshold(); got != 0.25 {
		t.Fatalf("Threshold = %v, want 0.25", got)
	}
}

func TestUniformConstructorErrors(t *testing.T) {
	if _, err := NewUniform(0, rng.New(1)); err == nil {
		t.Error("n=0: nil error")
	}
	if _, err := NewUniform(3, nil); err == nil {
		t.Error("nil src: nil error")
	}
}

func TestUniformCrash(t *testing.T) {
	u := mustUniform(t, 4, 4)
	if err := u.Crash(2); err != nil {
		t.Fatal(err)
	}
	if u.Correct(2) {
		t.Error("process 2 still correct after crash")
	}
	if u.NumCorrect() != 3 {
		t.Errorf("NumCorrect = %d, want 3", u.NumCorrect())
	}
	for i := 0; i < 1000; i++ {
		pid, err := u.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid == 2 {
			t.Fatal("crashed process was scheduled")
		}
	}
}

func TestUniformCrashErrors(t *testing.T) {
	u := mustUniform(t, 2, 5)
	if err := u.Crash(-1); !errors.Is(err, ErrBadProcess) {
		t.Errorf("Crash(-1): %v", err)
	}
	if err := u.Crash(5); !errors.Is(err, ErrBadProcess) {
		t.Errorf("Crash(5): %v", err)
	}
	if err := u.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := u.Crash(0); !errors.Is(err, ErrAlreadyDead) {
		t.Errorf("double crash: %v", err)
	}
	if err := u.Crash(1); !errors.Is(err, ErrLastProcess) {
		t.Errorf("last process crash: %v", err)
	}
}

func TestWeightedProportions(t *testing.T) {
	w, err := NewWeighted([]float64{1, 3}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 100000
	counts := make([]int, 2)
	for i := 0; i < steps; i++ {
		pid, err := w.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[pid]++
	}
	frac := float64(counts[1]) / steps
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("process 1 frequency %v, want ~0.75", frac)
	}
	if got := w.Threshold(); got != 0.25 {
		t.Errorf("Threshold = %v, want 0.25", got)
	}
}

func TestWeightedRejectsNonPositive(t *testing.T) {
	if _, err := NewWeighted([]float64{1, 0}, rng.New(1)); err == nil {
		t.Error("zero weight: nil error")
	}
	if _, err := NewWeighted([]float64{1, -2}, rng.New(1)); err == nil {
		t.Error("negative weight: nil error")
	}
	if _, err := NewWeighted(nil, rng.New(1)); err == nil {
		t.Error("empty weights: nil error")
	}
}

func TestWeightedCrashRenormalizes(t *testing.T) {
	w, err := NewWeighted([]float64{1, 1, 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Crash(2); err != nil {
		t.Fatal(err)
	}
	const steps = 50000
	counts := make([]int, 3)
	for i := 0; i < steps; i++ {
		pid, err := w.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[pid]++
	}
	if counts[2] != 0 {
		t.Fatal("crashed process scheduled")
	}
	frac := float64(counts[0]) / steps
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("after crash, process 0 frequency %v, want ~0.5", frac)
	}
}

func TestLotteryProportions(t *testing.T) {
	l, err := NewLottery([]int{1, 1, 2}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 100000
	counts := make([]int, 3)
	for i := 0; i < steps; i++ {
		pid, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[pid]++
	}
	if math.Abs(float64(counts[2])/steps-0.5) > 0.01 {
		t.Fatalf("2-ticket process frequency %v, want ~0.5", float64(counts[2])/steps)
	}
	if got := l.Threshold(); got != 0.25 {
		t.Errorf("Threshold = %v, want 0.25", got)
	}
}

func TestLotterySetTickets(t *testing.T) {
	l, err := NewLottery([]int{1, 1}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetTickets(0, 3); err != nil {
		t.Fatal(err)
	}
	const steps = 50000
	zero := 0
	for i := 0; i < steps; i++ {
		pid, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid == 0 {
			zero++
		}
	}
	if math.Abs(float64(zero)/steps-0.75) > 0.02 {
		t.Fatalf("after transfer, process 0 frequency %v, want ~0.75", float64(zero)/steps)
	}
	if err := l.SetTickets(0, 0); err == nil {
		t.Error("SetTickets(0,0): nil error")
	}
	if err := l.SetTickets(9, 1); err == nil {
		t.Error("SetTickets out of range: nil error")
	}
	// The total is 3+1 now: raising process 1 to MaxInt-3 fits exactly,
	// one more ticket would overflow it.
	if err := l.SetTickets(1, math.MaxInt-2); err == nil {
		t.Error("SetTickets overflowing the total: nil error")
	}
	if err := l.SetTickets(1, math.MaxInt-3); err != nil {
		t.Errorf("SetTickets to exactly MaxInt total: %v", err)
	}
	if got, want := l.Threshold(), 3/float64(math.MaxInt); got != want {
		t.Errorf("Threshold after transfer = %v, want %v", got, want)
	}
}

func TestLotteryRejectsBadTickets(t *testing.T) {
	if _, err := NewLottery([]int{1, 0}, rng.New(1)); err == nil {
		t.Error("zero tickets: nil error")
	}
	if _, err := NewLottery(nil, rng.New(1)); err == nil {
		t.Error("empty: nil error")
	}
}

func TestStickyCorrelation(t *testing.T) {
	const rho = 0.8
	s, err := NewSticky(4, rho, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 100000
	last, _ := s.Next()
	repeats := 0
	for i := 1; i < steps; i++ {
		pid, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid == last {
			repeats++
		}
		last = pid
	}
	// P(repeat) = rho + (1-rho)/n = 0.8 + 0.05 = 0.85.
	frac := float64(repeats) / (steps - 1)
	if math.Abs(frac-0.85) > 0.01 {
		t.Fatalf("repeat frequency %v, want ~0.85", frac)
	}
	if got, want := s.Threshold(), (1-rho)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("Threshold = %v, want %v", got, want)
	}
}

func TestStickyLongRunFair(t *testing.T) {
	s, err := NewSticky(5, 0.9, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 500000
	counts := make([]int, 5)
	for i := 0; i < steps; i++ {
		pid, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[pid]++
	}
	for pid, c := range counts {
		frac := float64(c) / steps
		if math.Abs(frac-0.2) > 0.02 {
			t.Fatalf("process %d long-run share %v, want ~0.2", pid, frac)
		}
	}
}

func TestStickyRejectsBadRho(t *testing.T) {
	if _, err := NewSticky(3, 1.0, rng.New(1)); !errors.Is(err, ErrBadStickiness) {
		t.Errorf("rho=1: %v", err)
	}
	if _, err := NewSticky(3, -0.1, rng.New(1)); !errors.Is(err, ErrBadStickiness) {
		t.Errorf("rho<0: %v", err)
	}
	if _, err := NewSticky(3, math.NaN(), rng.New(1)); !errors.Is(err, ErrBadStickiness) {
		t.Errorf("rho=NaN: %v", err)
	}
}

func TestStickyCrashAbandonsLast(t *testing.T) {
	s, err := NewSticky(3, 0.99, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	pid, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(pid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		got, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got == pid {
			t.Fatal("crashed process rescheduled by sticky path")
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r, err := NewRoundRobin(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("step %d: got %d, want %d", i, got, w)
		}
	}
	if r.Threshold() != 0 {
		t.Error("round robin should report zero threshold")
	}
}

func TestRoundRobinSkipsCrashed(t *testing.T) {
	r, err := NewRoundRobin(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(1); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 0, 2}
	for i, w := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("step %d: got %d, want %d", i, got, w)
		}
	}
}

func TestAdversarialSingleOut(t *testing.T) {
	a, err := NewAdversarial(4, SingleOut(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pid, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid == 2 {
			t.Fatal("victim was scheduled")
		}
	}
	if a.Threshold() != 0 {
		t.Error("adversary should report zero threshold")
	}
}

func TestAdversarialBadStrategy(t *testing.T) {
	a, err := NewAdversarial(2, func(tau uint64, n int) int { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Next(); !errors.Is(err, ErrBadProcess) {
		t.Errorf("out-of-range strategy: %v", err)
	}
	if _, err := NewAdversarial(2, nil); err == nil {
		t.Error("nil strategy: nil error")
	}
}

func TestSingleOutSingleProcess(t *testing.T) {
	strat := SingleOut(0)
	if got := strat(0, 1); got != 0 {
		t.Fatalf("n=1 must schedule process 0, got %d", got)
	}
}

func TestRecorderStepShares(t *testing.T) {
	u := mustUniform(t, 4, 13)
	r, err := NewRecorder(u)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 100000
	for i := 0; i < steps; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Total() != steps {
		t.Fatalf("Total = %d, want %d", r.Total(), steps)
	}
	shares := r.StepShares()
	var sum float64
	for pid, s := range shares {
		sum += s
		if math.Abs(s-0.25) > 0.01 {
			t.Errorf("process %d share %v, want ~0.25", pid, s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestRecorderNextStepDistribution(t *testing.T) {
	u := mustUniform(t, 4, 14)
	r, err := NewRecorder(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for from := 0; from < 4; from++ {
		dist, err := r.NextStepDistribution(from)
		if err != nil {
			t.Fatal(err)
		}
		for to, p := range dist {
			if math.Abs(p-0.25) > 0.02 {
				t.Errorf("P(next=%d|cur=%d) = %v, want ~0.25", to, from, p)
			}
		}
	}
}

func TestRecorderErrors(t *testing.T) {
	if _, err := NewRecorder(nil); err == nil {
		t.Error("nil inner: nil error")
	}
	u := mustUniform(t, 2, 15)
	r, err := NewRecorder(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextStepDistribution(0); err == nil {
		t.Error("no transitions: nil error")
	}
	if _, err := r.NextStepDistribution(-1); !errors.Is(err, ErrBadProcess) {
		t.Errorf("bad pid: %v", err)
	}
}

func TestRecorderEmptyShares(t *testing.T) {
	u := mustUniform(t, 3, 16)
	r, err := NewRecorder(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.StepShares() {
		if s != 0 {
			t.Fatal("empty recorder should report zero shares")
		}
	}
}

func TestRecorderTransitionCountsCopied(t *testing.T) {
	u := mustUniform(t, 2, 17)
	r, err := NewRecorder(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	counts := r.TransitionCounts()
	counts[0][0] = 999999
	again := r.TransitionCounts()
	if again[0][0] == 999999 {
		t.Fatal("TransitionCounts exposed internal state")
	}
}

func TestQuickUniformAlwaysActivePick(t *testing.T) {
	// Property: after any sequence of valid crashes, Next only ever
	// schedules correct processes.
	f := func(seed uint64, crashes []uint8) bool {
		const n = 6
		u, err := NewUniform(n, rng.New(seed))
		if err != nil {
			return false
		}
		for _, c := range crashes {
			_ = u.Crash(int(c % n)) // may legitimately fail; ignore
		}
		for i := 0; i < 50; i++ {
			pid, err := u.Next()
			if err != nil {
				return false
			}
			if !u.Correct(pid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickThresholdPositiveForStochastic(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		src := rng.New(seed)
		u, err := NewUniform(n, src)
		if err != nil || u.Threshold() <= 0 {
			return false
		}
		s, err := NewSticky(n, 0.5, src)
		if err != nil || s.Threshold() <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUniformNext(b *testing.B) {
	u, err := NewUniform(64, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := u.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStickyNext(b *testing.B) {
	s, err := NewSticky(64, 0.9, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecorderNext(b *testing.B) {
	u, err := NewUniform(64, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRecorder(u)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
