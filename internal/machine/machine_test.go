package machine

import (
	"errors"
	"math"
	"testing"

	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// stepper completes an invocation every period steps; it models the
// parallel code of Algorithm 4 with q = period.
type stepper struct {
	period int
	count  int
}

func (p *stepper) Step(mem *shmem.Memory) bool {
	mem.Read(0) // one shared-memory op per step, as the model requires
	p.count++
	if p.count == p.period {
		p.count = 0
		return true
	}
	return false
}

// never is a process that takes steps but never completes.
type never struct{}

func (never) Step(mem *shmem.Memory) bool {
	mem.Read(0)
	return false
}

func newSim(t *testing.T, n, period int, seed uint64) *Sim {
	t.Helper()
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &stepper{period: period}
	}
	u, err := sched.NewUniform(n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mem, procs, u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sched.NewUniform(2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, []Process{never{}, never{}}, u); err == nil {
		t.Error("nil memory: nil error")
	}
	if _, err := New(mem, nil, u); !errors.Is(err, ErrNoProcs) {
		t.Errorf("no procs: %v", err)
	}
	if _, err := New(mem, []Process{never{}, nil}, u); err == nil {
		t.Error("nil proc: nil error")
	}
	if _, err := New(mem, []Process{never{}}, u); !errors.Is(err, ErrProcMismatch) {
		t.Errorf("count mismatch: %v", err)
	}
	if _, err := New(mem, []Process{never{}, never{}}, nil); err == nil {
		t.Error("nil scheduler: nil error")
	}
}

func TestRunCountsSteps(t *testing.T) {
	s := newSim(t, 3, 5, 1)
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.Steps() != 1000 {
		t.Fatalf("Steps = %d, want 1000", s.Steps())
	}
}

func TestCompletionAccounting(t *testing.T) {
	// Single process completing every step: every step is a completion.
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.NewRoundRobin(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mem, []Process{&stepper{period: 1}}, rr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.TotalCompletions() != 100 {
		t.Fatalf("TotalCompletions = %d, want 100", s.TotalCompletions())
	}
	if got := s.Completions()[0]; got != 100 {
		t.Fatalf("Completions[0] = %d, want 100", got)
	}
	lat, err := s.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if lat != 1 {
		t.Fatalf("SystemLatency = %v, want 1", lat)
	}
}

func TestRoundRobinParallelCodeLatencies(t *testing.T) {
	// n processes each completing every q of their own steps under
	// round-robin: system latency is exactly q (Lemma 11's W = q) and
	// individual latency exactly n*q.
	const (
		n = 4
		q = 3
	)
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.NewRoundRobin(n)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &stepper{period: q}
	}
	s, err := New(mem, procs, rr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(n * q * 100); err != nil {
		t.Fatal(err)
	}
	sys, err := s.SystemLatencyRatio()
	if err != nil {
		t.Fatal(err)
	}
	if sys != q {
		t.Fatalf("system latency (ratio) = %v, want %d", sys, q)
	}
	// The gap estimator pays a boundary effect of one window (the
	// steps before the first completion), so it is only asymptotically
	// exact.
	gap, err := s.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-q) > 0.05 {
		t.Fatalf("system latency (gaps) = %v, want ~%d", gap, q)
	}
	ind, err := s.IndividualLatency(0)
	if err != nil {
		t.Fatal(err)
	}
	if ind != n*q {
		t.Fatalf("individual latency = %v, want %d", ind, n*q)
	}
}

func TestUniformParallelCodeLatency(t *testing.T) {
	// Under the uniform scheduler the same identities hold in
	// expectation (Lemma 11): W = q, W_i = n·q.
	const (
		n = 8
		q = 4
	)
	s := newSim(t, n, q, 42)
	if err := s.Run(20000); err != nil { // warmup
		t.Fatal(err)
	}
	s.ResetMetrics()
	if err := s.Run(800000); err != nil {
		t.Fatal(err)
	}
	sys, err := s.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys-q) > 0.05 {
		t.Errorf("system latency = %v, want ~%d", sys, q)
	}
	ind, err := s.MeanIndividualLatency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ind-n*q)/float64(n*q) > 0.05 {
		t.Errorf("individual latency = %v, want ~%d", ind, n*q)
	}
}

func TestLatencyEstimatorsAgree(t *testing.T) {
	s := newSim(t, 5, 7, 7)
	if err := s.Run(500000); err != nil {
		t.Fatal(err)
	}
	gap, err := s.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := s.SystemLatencyRatio()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-ratio)/ratio > 0.01 {
		t.Fatalf("gap estimator %v and ratio estimator %v diverge", gap, ratio)
	}
}

func TestResetMetricsDiscardsWarmup(t *testing.T) {
	s := newSim(t, 2, 3, 5)
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	s.ResetMetrics()
	if _, err := s.SystemLatency(); !errors.Is(err, ErrNoCompletions) {
		t.Errorf("after reset, SystemLatency: %v", err)
	}
	if rate := s.CompletionRate(); rate != 0 {
		t.Errorf("after reset, CompletionRate = %v, want 0", rate)
	}
	if err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SystemLatency(); err != nil {
		t.Errorf("after post-reset run: %v", err)
	}
}

func TestStarvedProcesses(t *testing.T) {
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sched.NewUniform(2, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mem, []Process{&stepper{period: 1}, never{}}, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	starved := s.StarvedProcesses()
	if len(starved) != 1 || starved[0] != 1 {
		t.Fatalf("StarvedProcesses = %v, want [1]", starved)
	}
}

func TestFairnessIndex(t *testing.T) {
	s := newSim(t, 4, 2, 8)
	if math.IsNaN(s.FairnessIndex()) != true {
		t.Error("FairnessIndex before any completion should be NaN")
	}
	if err := s.Run(200000); err != nil {
		t.Fatal(err)
	}
	if idx := s.FairnessIndex(); idx < 0.99 {
		t.Errorf("uniform scheduler fairness index = %v, want ~1", idx)
	}
}

func TestFairnessIndexMonopoly(t *testing.T) {
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sched.NewUniform(4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	procs := []Process{&stepper{period: 1}, never{}, never{}, never{}}
	s, err := New(mem, procs, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	if idx := s.FairnessIndex(); math.Abs(idx-0.25) > 1e-9 {
		t.Errorf("monopoly fairness index = %v, want 0.25", idx)
	}
}

func TestMaxIndividualGap(t *testing.T) {
	s := newSim(t, 2, 2, 10)
	if err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	gap, err := s.MaxIndividualGap(0)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := s.IndividualLatency(0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(gap) < ind {
		t.Fatalf("max gap %d below mean %v", gap, ind)
	}
	if _, err := s.MaxIndividualGap(99); err == nil {
		t.Error("out-of-range pid: nil error")
	}
}

func TestIndividualLatencyErrors(t *testing.T) {
	s := newSim(t, 2, 3, 11)
	if _, err := s.IndividualLatency(-1); err == nil {
		t.Error("pid -1: nil error")
	}
	if _, err := s.IndividualLatency(0); !errors.Is(err, ErrNoCompletions) {
		t.Errorf("no completions: %v", err)
	}
	if _, err := s.MeanIndividualLatency(); !errors.Is(err, ErrNoCompletions) {
		t.Errorf("mean with no completions: %v", err)
	}
}

func TestCompletionRateMatchesInverseLatency(t *testing.T) {
	s := newSim(t, 3, 5, 12)
	if err := s.Run(300000); err != nil {
		t.Fatal(err)
	}
	lat, err := s.SystemLatencyRatio()
	if err != nil {
		t.Fatal(err)
	}
	rate := s.CompletionRate()
	if math.Abs(rate*lat-1) > 1e-9 {
		t.Fatalf("rate %v is not inverse of ratio latency %v", rate, lat)
	}
}

func TestStepPropagatesSchedulerError(t *testing.T) {
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sched.NewAdversarial(1, func(tau uint64, n int) int { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mem, []Process{never{}}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err == nil {
		t.Fatal("scheduler error not propagated")
	}
}

func BenchmarkSimStep(b *testing.B) {
	mem, err := shmem.New(1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 16
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &stepper{period: 5}
	}
	u, err := sched.NewUniform(n, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(mem, procs, u)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
