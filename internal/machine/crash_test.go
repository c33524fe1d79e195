package machine

import (
	"errors"
	"math"
	"testing"

	"pwf/internal/sched"
)

// crashBeforeRun crashes pids through the simulator's scheduler before
// the first step: the one crash mechanism of the model, in which a
// crash only shrinks the set of correct processes the scheduler draws
// from.
func crashBeforeRun(t *testing.T, s *Sim, pids ...int) {
	t.Helper()
	c, ok := s.sch.(sched.Crasher)
	if !ok {
		t.Fatalf("scheduler %T does not support crashes", s.sch)
	}
	for _, pid := range pids {
		if err := c.Crash(pid); err != nil {
			t.Fatalf("crash pid %d: %v", pid, err)
		}
	}
}

func TestScheduledCrashStopsProcess(t *testing.T) {
	s := newSim(t, 3, 1, 2) // every step completes
	crashBeforeRun(t, s, 2)
	if err := s.Run(5000); err != nil {
		t.Fatal(err)
	}
	comps := s.Completions()
	if comps[2] != 0 {
		t.Fatalf("crashed process completed %d ops", comps[2])
	}
	if comps[0] == 0 || comps[1] == 0 || comps[0]+comps[1] != 5000 {
		t.Fatalf("survivors completed %v, want every step between 0 and 1", comps)
	}
}

func TestCrashReducesLatencyToSurvivorLevel(t *testing.T) {
	// Corollary 2: with half the processes crashed, the stationary
	// latency matches a fresh run with only the survivors.
	const (
		n      = 8
		period = 4
	)
	s := newSim(t, n, period, 4)
	crashBeforeRun(t, s, 0, 1, 2, 3)
	if err := s.Run(2000); err != nil { // settle
		t.Fatal(err)
	}
	s.ResetMetrics()
	if err := s.Run(400000); err != nil {
		t.Fatal(err)
	}
	got, err := s.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	// Parallel code with k survivors: W = q exactly (Lemma 11 with k).
	if math.Abs(got-period) > 0.1 {
		t.Fatalf("post-crash latency %v, want ~%d", got, period)
	}
}

func TestCrashAllButOne(t *testing.T) {
	s := newSim(t, 3, 2, 5)
	crashBeforeRun(t, s, 0, 1)
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Only process 2 runs; it completes every 2 of its own steps and
	// is scheduled every step.
	s.ResetMetrics()
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	w, err := s.SystemLatency()
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Fatalf("solo latency %v, want 2", w)
	}
}

func TestCrashLastProcessRejected(t *testing.T) {
	s := newSim(t, 2, 2, 6)
	crashBeforeRun(t, s, 0)
	// Crashing the last correct process would leave nothing to
	// schedule; the model allows at most n-1 crashes, so the crash
	// fails loudly and the survivor keeps running.
	err := s.sch.(sched.Crasher).Crash(1)
	if !errors.Is(err, sched.ErrLastProcess) {
		t.Fatalf("crashing the last correct process: %v, want ErrLastProcess", err)
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if comps := s.Completions(); comps[0] != 0 || comps[1] != 50 {
		t.Fatalf("completions %v, want [0 50]", comps)
	}
}
