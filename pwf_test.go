package pwf

import (
	"math"
	"testing"
)

func TestRunSCUQuick(t *testing.T) {
	cfg := NewRunConfig(SCUWorkload(0, 1), 4)
	cfg.Steps, cfg.Seed = 100000, 1
	lat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactSCUSystemLatency(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat.System-exact)/exact > 0.05 {
		t.Fatalf("simulated W %v vs exact %v", lat.System, exact)
	}
	if ratio := lat.Individual / (4 * lat.System); math.Abs(ratio-1) > 0.05 {
		t.Fatalf("W_i/(n·W) = %v, want ~1", ratio)
	}
	if lat.Fairness < 0.95 {
		t.Fatalf("fairness %v", lat.Fairness)
	}
	if lat.Completions == 0 {
		t.Fatal("no completions")
	}
}

func TestRunFetchIncMatchesExact(t *testing.T) {
	cfg := NewRunConfig(FetchIncWorkload(), 8)
	cfg.Steps, cfg.Seed = 200000, 2
	lat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactFetchIncLatency(8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat.System-exact)/exact > 0.05 {
		t.Fatalf("simulated W %v vs exact %v", lat.System, exact)
	}
	if exact > 2*math.Sqrt(8) {
		t.Fatalf("exact W %v violates Lemma 12 bound", exact)
	}
}

func TestVerifySCULiftingPublic(t *testing.T) {
	report, err := VerifySCULifting(3)
	if err != nil {
		t.Fatal(err)
	}
	if report.MaxFlowError > 1e-9 || report.MaxMarginalError > 1e-9 {
		t.Fatalf("lifting errors: %v, %v", report.MaxFlowError, report.MaxMarginalError)
	}
}

func TestNewSimCustomComposition(t *testing.T) {
	// Compose the public pieces by hand: unbounded algorithm under a
	// sticky scheduler.
	procs, err := NewUnboundedProcesses(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStickyScheduler(4, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(UnboundedMemSize, procs, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50000); err != nil {
		t.Fatal(err)
	}
	if sim.TotalCompletions() == 0 {
		t.Fatal("no completions")
	}
}

func TestRoundRobinSchedulerPublic(t *testing.T) {
	procs, err := NewSCUProcesses(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRoundRobinScheduler(3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(SCUMemSize(1), procs, rr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(6000); err != nil {
		t.Fatal(err)
	}
	if len(sim.StarvedProcesses()) == 0 {
		// Deterministic round-robin on SCU(0,1) lets the same process
		// win every round (see E8); with 3 processes, two starve.
		t.Log("round-robin did not starve anyone (schedule-dependent)")
	}
}

func TestReplayAndPhasedPublic(t *testing.T) {
	rec, err := RecordSchedule(2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewReplayScheduler(2, rec.Order(), true)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := NewSCUProcesses(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(SCUMemSize(1), procs, replay)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3000); err != nil {
		t.Fatal(err)
	}
	if sim.TotalCompletions() == 0 {
		t.Fatal("no completions under replayed schedule")
	}

	phased, err := NewPhasedScheduler(2, []SchedulerPhase{
		{Weights: []float64{3, 1}, Steps: 50},
		{Weights: []float64{1, 3}, Steps: 50},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	procs2, err := NewSCUProcesses(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := NewSim(SCUMemSize(1), procs2, phased)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim2.Run(20000); err != nil {
		t.Fatal(err)
	}
	if len(sim2.StarvedProcesses()) != 0 {
		t.Fatal("phased stochastic scheduler starved a process")
	}
}

func TestUniversalObjectsPublic(t *testing.T) {
	inc := func(pid int, seq int64) int64 { return 1 }

	lf, err := NewLockFreeObject(CounterSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := lf.Processes(inc)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniformScheduler(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(LockFreeObjectMemSize, procs, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20000); err != nil {
		t.Fatal(err)
	}
	if lf.Violations() != 0 {
		t.Fatalf("violations: %d", lf.Violations())
	}

	wf, err := NewWaitFreeObject(CounterSpec(), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(WaitFreeObjectMemSize(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	wf.Init(mem)
	wfProcs, err := wf.Processes(inc)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUniformScheduler(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	wfSim, err := NewSimOn(mem, wfProcs, u2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wfSim.Run(30000); err != nil {
		t.Fatal(err)
	}
	if wf.Violations() != 0 {
		t.Fatalf("wait-free violations: %d", wf.Violations())
	}
}

func TestRecordScheduleAndRatePublic(t *testing.T) {
	s, err := RecordSchedule(2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("empty schedule")
	}
	res, err := MeasureCounterRate(2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() <= 0 || res.Rate() > 0.5 {
		t.Fatalf("rate %v out of (0, 0.5]", res.Rate())
	}
}
