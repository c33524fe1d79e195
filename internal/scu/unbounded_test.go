package scu

import (
	"errors"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
)

func TestUnboundedValidation(t *testing.T) {
	if _, err := NewUnbounded(-1, 0, 1); !errors.Is(err, ErrBadPID) {
		t.Errorf("pid -1: %v", err)
	}
	if _, err := NewUnbounded(0, -1, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("base -1: %v", err)
	}
	if _, err := NewUnbounded(0, 0, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("waitFactor 0: %v", err)
	}
	if _, err := NewUnboundedGroup(0, 0, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("n=0: %v", err)
	}
}

func TestUnboundedSoloWinsRepeatedly(t *testing.T) {
	// A solo process always has the current value: every step wins.
	mem := newMemory(t, UnboundedLayout)
	p, err := NewUnbounded(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if !p.Step(mem) {
			t.Fatalf("solo step %d did not complete", i)
		}
		if got := mem.Peek(0); got != i {
			t.Fatalf("C = %d, want %d", got, i)
		}
	}
}

func TestUnboundedLoserBacksOffProportionally(t *testing.T) {
	// After losing with current value v, a process performs
	// waitFactor*v reads before its next CAS attempt.
	const factor = 3
	mem := newMemory(t, UnboundedLayout)
	winner, err := NewUnbounded(0, 0, factor)
	if err != nil {
		t.Fatal(err)
	}
	loser, err := NewUnbounded(1, 0, factor)
	if err != nil {
		t.Fatal(err)
	}
	// Winner advances C to 2.
	for i := 0; i < 2; i++ {
		if !winner.Step(mem) {
			t.Fatal("winner step failed")
		}
	}
	// Loser: first step fails (C=2, v=0), adopts v=2, must now take
	// factor*2 = 6 read steps before the next CAS.
	if loser.Step(mem) {
		t.Fatal("stale loser completed")
	}
	casBefore := mem.Counters().CASes
	for i := 0; i < factor*2; i++ {
		if loser.Step(mem) {
			t.Fatalf("loser completed during backoff read %d", i)
		}
	}
	if got := mem.Counters().CASes; got != casBefore {
		t.Fatalf("loser issued a CAS during backoff (%d vs %d)", got, casBefore)
	}
	// Next step is the CAS with the adopted value; solo now, it wins.
	if !loser.Step(mem) {
		t.Fatal("loser's post-backoff CAS should win")
	}
}

func TestUnboundedLockFreeSystemProgress(t *testing.T) {
	// The algorithm is lock-free: the system as a whole keeps
	// completing operations (C keeps growing) even under contention,
	// under the uniform and under a sticky stochastic scheduler.
	const n = 4
	uniform, err := sched.NewUniform(n, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := sched.NewSticky(n, 0.5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{uniform, sticky} {
		mem := newMemory(t, UnboundedLayout)
		procs, err := NewUnboundedGroup(n, 0, 0) // waitFactor = n²
		if err != nil {
			t.Fatal(err)
		}
		sim, err := machine.New(mem, procs, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(200000); err != nil {
			t.Fatal(err)
		}
		if sim.TotalCompletions() < 100 {
			t.Fatalf("%T: system made little progress: %d completions", s, sim.TotalCompletions())
		}
	}
}

func TestUnboundedStarvesLosers(t *testing.T) {
	// Lemma 2: with high probability one process monopolises the CAS
	// while the others' completion counts stagnate. We assert strong
	// dominance rather than literal starvation (the lemma's bound is
	// asymptotic in n; at small n a loser may sneak in an early win).
	const n = 8
	mem := newMemory(t, UnboundedLayout)
	procs, err := NewUnboundedGroup(n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 12)
	if err := sim.Run(500000); err != nil {
		t.Fatal(err)
	}
	comps := sim.Completions()
	var max, total uint64
	for _, c := range comps {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		t.Fatal("no completions at all")
	}
	if share := float64(max) / float64(total); share < 0.9 {
		t.Fatalf("dominant process share %v, want >= 0.9 (counts %v)", share, comps)
	}
	if idx := sim.FairnessIndex(); idx > 0.5 {
		t.Errorf("fairness index %v, expected heavily skewed (< 0.5)", idx)
	}
}

func TestUnboundedGroupDefaultsWaitFactor(t *testing.T) {
	procs, err := NewUnboundedGroup(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		u, ok := p.(*Unbounded)
		if !ok {
			t.Fatal("not an Unbounded")
		}
		if u.waitFactor != 25 {
			t.Fatalf("waitFactor = %d, want n² = 25", u.waitFactor)
		}
	}
}

func TestUnboundedCGrowsMonotonically(t *testing.T) {
	mem := newMemory(t, UnboundedLayout)
	procs, err := NewUnboundedGroup(3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 13)
	prev := int64(0)
	for i := 0; i < 10000; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		if c := mem.Peek(0); c < prev {
			t.Fatalf("C decreased: %d -> %d", prev, c)
		} else {
			prev = c
		}
	}
	if got := uint64(mem.Peek(0)); got != sim.TotalCompletions() {
		t.Fatalf("C = %d, completions = %d", mem.Peek(0), sim.TotalCompletions())
	}
}
