package machine

import (
	"io"
	"reflect"
	"testing"

	"pwf/internal/obs"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// casProc models the canonical lock-free retry loop: read the
// register, then CAS it forward; a lost race costs one failed CAS and
// another pass. One operation = one successful CAS.
type casProc struct {
	seen    int64
	haveVal bool
}

func (p *casProc) Step(mem *shmem.Memory) bool {
	if !p.haveVal {
		p.seen = mem.Read(0)
		p.haveVal = true
		return false
	}
	ok := mem.CAS(0, p.seen, p.seen+1)
	p.haveVal = false
	return ok
}

// collector is a Recorder capturing every event in order.
type collector struct{ events []obs.Event }

func (c *collector) Record(e obs.Event) { c.events = append(c.events, e) }

func newCASSim(t testing.TB, n int, rec obs.Recorder) *Sim {
	t.Helper()
	mem, err := shmem.New(1)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &casProc{}
	}
	u, err := sched.NewUniform(n, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mem, procs, u)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		s.SetRecorder(rec)
	}
	return s
}

func TestRecorderEventStream(t *testing.T) {
	var c collector
	s := newCASSim(t, 4, &c)
	const steps = 10000
	if err := s.Run(steps); err != nil {
		t.Fatal(err)
	}

	var (
		scheds, begins, casOK, casFail, retries, completes int
		attemptsFromCompletes                              uint64
		lastStep                                           uint64
	)
	inOp := make(map[int]bool)
	for i, e := range c.events {
		switch e.Kind {
		case obs.KindSched:
			if e.Step != lastStep+1 {
				t.Fatalf("event %d: sched step %d after %d", i, e.Step, lastStep)
			}
			lastStep = e.Step
			scheds++
		case obs.KindBegin:
			if inOp[e.PID] {
				t.Fatalf("event %d: begin while pid %d already in an op", i, e.PID)
			}
			inOp[e.PID] = true
			begins++
		case obs.KindCAS:
			if e.OK {
				casOK++
			} else {
				casFail++
			}
		case obs.KindRetry:
			if e.Attempts == 0 {
				t.Fatalf("event %d: retry with zero attempts", i)
			}
			retries++
		case obs.KindComplete:
			if !inOp[e.PID] {
				t.Fatalf("event %d: complete outside an op for pid %d", i, e.PID)
			}
			inOp[e.PID] = false
			completes++
			attemptsFromCompletes += e.Attempts
		}
	}
	if scheds != steps {
		t.Errorf("%d sched events, want %d", scheds, steps)
	}
	if casFail == 0 || retries == 0 {
		t.Errorf("uniform contention produced no failures/retries (fail=%d retry=%d)",
			casFail, retries)
	}
	// Every completion is one successful CAS, and an op's Attempts
	// counts all its CASes, so summed attempts = total CAS events for
	// completed ops. Open ops at the end account for any difference.
	if uint64(completes) != s.TotalCompletions() {
		t.Errorf("%d complete events vs %d sim completions", completes, s.TotalCompletions())
	}
	if casOK != completes {
		t.Errorf("%d CAS successes vs %d completions", casOK, completes)
	}
	if attemptsFromCompletes < uint64(casOK) {
		t.Errorf("summed attempts %d below success count %d", attemptsFromCompletes, casOK)
	}
}

func TestSetRecorderNopIsDisabled(t *testing.T) {
	s := newCASSim(t, 2, nil)
	s.SetRecorder(obs.Nop)
	if s.rec != nil {
		t.Fatal("obs.Nop was not normalized to the nil fast path")
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
}

// benchSimStep measures the per-step cost with the given recorder; the
// nil case is the pre-hook baseline the <5% overhead budget is judged
// against.
func benchSimStep(b *testing.B, rec obs.Recorder) {
	s := newCASSim(b, 16, rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimStepNoRecorder(b *testing.B)  { benchSimStep(b, nil) }
func BenchmarkSimStepNopRecorder(b *testing.B) { benchSimStep(b, obs.Nop) }

// BenchmarkSimStepMetrics times the counting path an *obs.Metrics
// recorder gets; BenchmarkSimStepMetricsEvents times the same Metrics
// fed one event at a time, as it is behind any wrapper.
func BenchmarkSimStepMetrics(b *testing.B) {
	benchSimStep(b, obs.NewMetrics(obs.NewRegistry()))
}
func BenchmarkSimStepMetricsEvents(b *testing.B) {
	benchSimStep(b, eventPath{obs.NewMetrics(obs.NewRegistry())})
}
func BenchmarkSimStepTraceDiscard(b *testing.B) {
	benchSimStep(b, obs.NewBinaryTraceWriter(io.Discard, obs.BinaryTraceOptions{Registry: obs.NewRegistry()}))
}

// eventPath hides a recorder's type, so that an *obs.Metrics behind it
// is fed events instead of counted.
type eventPath struct{ obs.Recorder }

// TestCountedMetricsMatchEvents runs the same contended CAS loop with
// an *obs.Metrics counted on the fast path and with one fed events,
// and requires identical registries.
func TestCountedMetricsMatchEvents(t *testing.T) {
	var snaps [2]obs.Snapshot
	for i, wrap := range []bool{false, true} {
		reg := obs.NewRegistry()
		var rec obs.Recorder = obs.NewMetrics(reg)
		if wrap {
			rec = eventPath{rec}
		}
		s := newCASSim(t, 5, rec)
		if err := s.Run(3 * flushEvery / 2); err != nil {
			t.Fatal(err)
		}
		snaps[i] = reg.Snapshot()
	}
	if snaps[1].Counters["sim_retries"] == 0 {
		t.Fatalf("no retries in a contended run: %v", snaps[1].Counters)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Errorf("counted registry %+v\nevent registry %+v", snaps[0], snaps[1])
	}
}

// TestMetricsFlushCadence pins when a counted *obs.Metrics sees the
// steps: every flushEvery steps and at the end of every Run, for the
// scalar Sim and for each replica of a BatchSim.
func TestMetricsFlushCadence(t *testing.T) {
	m := obs.NewMetrics(obs.NewRegistry())
	s := newCASSim(t, 4, m)
	for i := 0; i < flushEvery-1; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.SchedSteps.Load(); got != 0 {
		t.Fatalf("%d steps flushed before step %d", got, flushEvery)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := m.SchedSteps.Load(); got != flushEvery {
		t.Fatalf("after %d steps the registry holds %d", flushEvery, got)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m.SchedSteps.Load(); got != flushEvery+10 {
		t.Fatalf("Run(10) left the registry at %d, want %d", got, flushEvery+10)
	}

	const k, n = 3, 4
	bm := obs.NewMetrics(obs.NewRegistry())
	drawer, err := sched.NewUniformBatch(n, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	probe := &probeGroup{periodGroup: periodGroup{k: k, n: n, period: 2, count: make([]int, k*n)}, m: bm}
	bs, err := NewBatchSim(probe, drawer)
	if err != nil {
		t.Fatal(err)
	}
	bs.SetMetrics(bm)
	const steps = 2*flushEvery + 3
	if err := bs.Run(steps); err != nil {
		t.Fatal(err)
	}
	for i, got := range probe.seen {
		if want := uint64(i/flushEvery) * flushEvery * k; got != want {
			t.Fatalf("before step %d the registry held %d steps, want %d", i+1, got, want)
		}
	}
	if got := bm.SchedSteps.Load(); got != steps*k {
		t.Fatalf("after Run the registry holds %d steps, want %d", got, steps*k)
	}
	if got, want := bm.Completions.Load(), bm.AttemptsPerOp.Count(); got == 0 || got != want {
		t.Fatalf("%d completions, %d histogram observations", got, want)
	}
}

// probeGroup is a periodGroup that reads the registry's step count
// before every batch step.
type probeGroup struct {
	periodGroup
	m    *obs.Metrics
	seen []uint64
}

func (g *probeGroup) StepBatch(pids []int32, out []Outcome) {
	g.seen = append(g.seen, g.m.SchedSteps.Load())
	g.periodGroup.StepBatch(pids, out)
}
