package scu

import (
	"errors"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// incOps is the operation stream "+1 forever".
func incOps(pid int, seq int64) int64 { return 1 }

// variedOps mixes op values so responses differ across processes.
func variedOps(pid int, seq int64) int64 { return int64(pid + 1) }

// responseLog wraps a universal-construction process and logs the
// response of each operation it completes; the process itself keeps
// only the last one.
type responseLog struct {
	machine.Process
	last  *int64
	resps []int64
}

func (l *responseLog) Step(mem *shmem.Memory) bool {
	done := l.Process.Step(mem)
	if done {
		l.resps = append(l.resps, *l.last)
	}
	return done
}

// logResponses replaces each of procs, all LFUniversalProc or
// WFUniversalProc, with a responseLog around it, and returns the logs.
func logResponses(procs []machine.Process) []*responseLog {
	logs := make([]*responseLog, len(procs))
	for i, p := range procs {
		l := &responseLog{Process: p}
		switch p := p.(type) {
		case *LFUniversalProc:
			l.last = &p.resp
		case *WFUniversalProc:
			l.last = &p.resp
		}
		logs[i], procs[i] = l, l
	}
	return logs
}

func TestObjectSemantics(t *testing.T) {
	var c CounterObject
	s, r := c.Apply(5, 3)
	if s != 8 || r != 5 {
		t.Errorf("counter Apply(5,3) = (%d,%d), want (8,5)", s, r)
	}
	var m MaxObject
	s, r = m.Apply(5, 3)
	if s != 5 || r != 5 {
		t.Errorf("max Apply(5,3) = (%d,%d)", s, r)
	}
	s, r = m.Apply(5, 9)
	if s != 9 || r != 5 {
		t.Errorf("max Apply(5,9) = (%d,%d)", s, r)
	}
	mod := ModCounterObject{Mod: 3}
	s, r = mod.Apply(2, 2)
	if s != 1 || r != 2 {
		t.Errorf("mod Apply(2,2) = (%d,%d), want (1,2)", s, r)
	}
	if mod.Name() != "counter-mod-3" {
		t.Errorf("Name = %q", mod.Name())
	}
	zero := ModCounterObject{}
	if s, _ := zero.Apply(7, 5); s != 0 {
		t.Errorf("degenerate modulus Apply = %d, want 0", s)
	}
}

func TestLFUniversalValidation(t *testing.T) {
	if _, err := NewLFUniversal(nil, 2, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil object: %v", err)
	}
	if _, err := NewLFUniversal(CounterObject{}, 0, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("n=0: %v", err)
	}
	u, err := NewLFUniversal(CounterObject{}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Process(5, incOps); !errors.Is(err, ErrBadPID) {
		t.Errorf("bad pid: %v", err)
	}
	if _, err := u.Process(0, nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil ops: %v", err)
	}
}

func TestLFUniversalSolo(t *testing.T) {
	u, err := NewLFUniversal(CounterObject{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := newMemory(t, LFUniversalLayout)
	p, err := u.Process(0, incOps)
	if err != nil {
		t.Fatal(err)
	}
	log := logResponses([]machine.Process{p})[0]
	for op := 0; op < 10; op++ {
		if log.Step(mem) { // read
			t.Fatal("completed on read step")
		}
		if !log.Step(mem) { // CAS
			t.Fatal("solo CAS failed")
		}
	}
	if u.State() != 10 || u.Ops() != 10 || u.Violations() != 0 {
		t.Fatalf("state=%d ops=%d violations=%d", u.State(), u.Ops(), u.Violations())
	}
	resps := log.resps
	if len(resps) != 10 {
		t.Fatalf("%d responses, want 10", len(resps))
	}
	for i, r := range resps {
		if r != int64(i) {
			t.Fatalf("response %d = %d, want %d", i, r, i)
		}
	}
}

func TestLFUniversalConcurrentLinearizable(t *testing.T) {
	const n = 6
	for _, obj := range []Object{CounterObject{}, MaxObject{}, ModCounterObject{Mod: 5}} {
		u, err := NewLFUniversal(obj, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem := newMemory(t, LFUniversalLayout)
		procs, err := u.Processes(variedOps)
		if err != nil {
			t.Fatal(err)
		}
		sim := uniformSim(t, mem, procs, 61)
		if err := sim.Run(100000); err != nil {
			t.Fatal(err)
		}
		if u.Violations() != 0 {
			t.Fatalf("%s: %d violations", obj.Name(), u.Violations())
		}
		if u.Ops() != sim.TotalCompletions() {
			t.Fatalf("%s: ops %d != completions %d", obj.Name(), u.Ops(), sim.TotalCompletions())
		}
	}
}

func TestLFUniversalModCounterNoABA(t *testing.T) {
	// The mod-3 counter's raw state repeats constantly; the version
	// tag must prevent any stale CAS from succeeding. Violations
	// would show up as shadow mismatches.
	const n = 4
	u, err := NewLFUniversal(ModCounterObject{Mod: 3}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := newMemory(t, LFUniversalLayout)
	procs, err := u.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 62)
	if err := sim.Run(200000); err != nil {
		t.Fatal(err)
	}
	if u.Violations() != 0 {
		t.Fatalf("ABA slipped through: %d violations", u.Violations())
	}
}

func newWF(t *testing.T, obj Object, n, poolSize int) (*WFUniversal, *shmem.Memory) {
	t.Helper()
	u, err := NewWFUniversal(obj, n, poolSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := newMemory(t, WFUniversalLayout(n, poolSize))
	u.Init(mem)
	return u, mem
}

func TestWFUniversalValidation(t *testing.T) {
	if _, err := NewWFUniversal(nil, 2, 4, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil object: %v", err)
	}
	if _, err := NewWFUniversal(CounterObject{}, 0, 4, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := NewWFUniversal(CounterObject{}, 2, 1, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("poolSize=1: %v", err)
	}
	u, err := NewWFUniversal(CounterObject{}, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Process(0, incOps); !errors.Is(err, ErrBadParams) {
		t.Errorf("uninitialized: %v", err)
	}
}

func TestWFUniversalSolo(t *testing.T) {
	u, mem := newWF(t, CounterObject{}, 1, 4)
	p, err := u.Process(0, incOps)
	if err != nil {
		t.Fatal(err)
	}
	log := logResponses([]machine.Process{p})[0]
	completions := 0
	for step := 0; completions < 10; step++ {
		if step > 10000 {
			t.Fatal("solo WF universal stuck")
		}
		if log.Step(mem) {
			completions++
		}
	}
	if u.State() != 10 || u.Violations() != 0 {
		t.Fatalf("state=%d violations=%d", u.State(), u.Violations())
	}
	resps := log.resps
	if len(resps) != 10 {
		t.Fatalf("%d responses, want 10", len(resps))
	}
	for i, r := range resps {
		if r != int64(i) {
			t.Fatalf("response %d = %d, want %d", i, r, i)
		}
	}
	if u.Err() != nil {
		t.Fatal(u.Err())
	}
}

func TestWFUniversalConcurrentLinearizable(t *testing.T) {
	const n = 5
	u, mem := newWF(t, CounterObject{}, n, 8)
	procs, err := u.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 63)
	if err := sim.Run(300000); err != nil {
		t.Fatal(err)
	}
	if u.Err() != nil {
		t.Fatal(u.Err())
	}
	if u.Violations() != 0 {
		t.Fatalf("violations: %d", u.Violations())
	}
	if u.Ops() != sim.TotalCompletions() {
		// Ops counts batch applications; completions counts when the
		// caller observed its response. At simulation end some applied
		// ops are not yet observed.
		if u.Ops() < sim.TotalCompletions() {
			t.Fatalf("ops %d < completions %d", u.Ops(), sim.TotalCompletions())
		}
		if u.Ops()-sim.TotalCompletions() > uint64(n) {
			t.Fatalf("ops %d vs completions %d: more than n in flight",
				u.Ops(), sim.TotalCompletions())
		}
	}
	if got := uint64(u.State()); got != u.Ops() {
		t.Fatalf("counter state %d != applied ops %d", got, u.Ops())
	}
	if starved := sim.StarvedProcesses(); len(starved) != 0 {
		t.Fatalf("starved: %v", starved)
	}
}

func TestWFUniversalResponsesAreSequential(t *testing.T) {
	// For a fetch-and-add counter, the multiset of all responses must
	// be exactly {0, 1, ..., ops-1}: no duplication, no loss.
	const n = 4
	u, mem := newWF(t, CounterObject{}, n, 8)
	procs, err := u.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	logs := logResponses(procs)
	sim := uniformSim(t, mem, procs, 64)
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, log := range logs {
		if _, ok := log.Process.(*WFUniversalProc); !ok {
			t.Fatal("not a WFUniversalProc")
		}
		for _, r := range log.resps {
			if seen[r] {
				t.Fatalf("response %d delivered twice", r)
			}
			seen[r] = true
		}
	}
	for v := int64(0); v < int64(len(seen)); v++ {
		if !seen[v] {
			t.Fatalf("response %d missing from the prefix", v)
		}
	}
}

func TestWFUniversalWaitFreeBound(t *testing.T) {
	// The wait-freedom property: every operation completes within
	// O(n) of the caller's own steps, under an arbitrary (here:
	// uniform) schedule. Empirical bound: c*n own steps with a
	// generous constant.
	const n = 6
	u, mem := newWF(t, CounterObject{}, n, 8)
	procs, err := u.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 65)
	if err := sim.Run(200000); err != nil {
		t.Fatal(err)
	}
	if u.Err() != nil {
		t.Fatal(u.Err())
	}
	const cBound = 20 // 3 attempts x (5n+8) comfortably below 20n
	for pid, mp := range procs {
		p, ok := mp.(*WFUniversalProc)
		if !ok {
			t.Fatal("not a WFUniversalProc")
		}
		if max := p.MaxOwnSteps(); max > cBound*n {
			t.Fatalf("process %d worst op took %d own steps (> %d·n)", pid, max, cBound)
		}
	}
}

func TestWFUniversalWaitFreeUnderAdversary(t *testing.T) {
	// The decisive contrast with lock-free SCU: under the
	// process-singling adversary, the WF construction still completes
	// the victim's operations... the victim is never scheduled, so
	// instead single out a *helper-dependent* scenario: an adversary
	// that gives the victim only 1 step in n. Use a weighted
	// stochastic scheduler heavily biased against process 0; the
	// victim must still complete ops with bounded own-steps.
	const n = 4
	u, mem := newWF(t, CounterObject{}, n, 8)
	procs, err := u.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	victim, ok := procs[0].(*WFUniversalProc)
	if !ok {
		t.Fatal("not a WFUniversalProc")
	}
	victimLog := logResponses(procs[:1])[0]
	weights := []float64{0.01, 1, 1, 1}
	w, err := sched.NewWeighted(weights, rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := machine.New(mem, procs, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(300000); err != nil {
		t.Fatal(err)
	}
	if u.Violations() != 0 {
		t.Fatalf("violations: %d", u.Violations())
	}
	if len(victimLog.resps) == 0 {
		t.Fatal("starved victim despite wait-free construction")
	}
	if max := victim.MaxOwnSteps(); max > 20*n {
		t.Fatalf("victim's worst op took %d own steps", max)
	}
}

func TestWFUniversalMaxObject(t *testing.T) {
	const n = 3
	u, mem := newWF(t, MaxObject{}, n, 8)
	procs, err := u.Processes(func(pid int, seq int64) int64 {
		return int64(pid)*1000 + seq
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 67)
	if err := sim.Run(50000); err != nil {
		t.Fatal(err)
	}
	if u.Violations() != 0 {
		t.Fatalf("violations: %d", u.Violations())
	}
	if u.Ops() == 0 {
		t.Fatal("no ops applied")
	}
}

// The scalar universal constructions keep no per-operation state: a
// long run after a warmup allocates nothing, however many operations
// complete in it.
func TestUniversalLongRunZeroAllocs(t *testing.T) {
	const n, steps = 8, 2_000_000
	lf, err := NewLFUniversal(CounterObject{}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	lfProcs, err := lf.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	wf, wfMem := newWF(t, CounterObject{}, n, 8)
	wfProcs, err := wf.Processes(incOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sim  *machine.Sim
	}{
		{"lfuniversal", uniformSim(t, newMemory(t, LFUniversalLayout), lfProcs, 68)},
		{"wfuniversal", uniformSim(t, wfMem, wfProcs, 69)},
	} {
		if err := tc.sim.Run(5000); err != nil {
			t.Fatal(err)
		}
		before := tc.sim.TotalCompletions()
		allocs := testing.AllocsPerRun(1, func() {
			if err := tc.sim.Run(steps); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %d steps (%d operations) allocated %v times, want 0",
				tc.name, steps, tc.sim.TotalCompletions()-before, allocs)
		}
	}
}
