package machine

import (
	"testing"

	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

func benchSim(tb testing.TB, n int, sch sched.Scheduler) *Sim {
	tb.Helper()
	mem, err := shmem.New(1)
	if err != nil {
		tb.Fatal(err)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &stepper{period: 3}
	}
	if sch == nil {
		u, err := sched.NewUniform(n, rng.New(1))
		if err != nil {
			tb.Fatal(err)
		}
		sch = u
	}
	sim, err := New(mem, procs, sch)
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// BenchmarkSimRun times the untraced, crash-free Run fast path: one
// scheduler draw plus one process step per iteration, with 0
// allocs/op as the acceptance bar. (BenchmarkSimStep in
// machine_test.go times the general per-Step entry point.)
func BenchmarkSimRun(b *testing.B) {
	sim := benchSim(b, 64, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if err := sim.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func TestRunZeroAllocs(t *testing.T) {
	sim := benchSim(t, 64, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if err := sim.Run(100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced Run allocated %v/run, want 0", allocs)
	}
}
