// Package machine implements the discrete-time execution model of
// Section 2.1: at every time unit the scheduler picks one process,
// which performs local computation and then issues exactly one
// shared-memory step. The machine drives simulated algorithm
// instances (see package scu) against a scheduler (package sched) on
// a shared memory (package shmem), and measures the two quantities
// the paper analyses:
//
//   - system latency: expected number of system steps between two
//     consecutive completions by any process;
//   - individual latency: expected number of system steps between two
//     consecutive completions by the same process.
//
// Both are defined once, in Window: the metrics window of one replica.
// Sim steps one replica through the Process interface and embeds its
// Window; BatchSim steps K replicas of one job shape in lockstep and
// holds K windows (BatchSim.Replica), all reading the simulator's
// shared step clock. The two step loops stay separate for speed; the
// metrics they feed are the same code. Latencies are estimated two
// ways — as the mean of inter-completion gaps and as the
// total-steps/total-completions ratio — which agree in the long run;
// tests compare them (the "latency estimator" ablation in DESIGN.md).
//
// Telemetry rides on the same loops. Every step has an Outcome —
// completed, CAS, CAS failed — which Sim reads off the memory's
// operation counters and each BatchGroup reports from its own
// transition. Both loops count an *obs.Metrics on their fast path,
// through one per-process bookkeeping of the operation in flight and
// a per-simulator obs.Tally (Sim.SetRecorder, BatchSim.SetMetrics);
// Sim feeds any other recorder the step's events instead.
package machine

import (
	"errors"
	"fmt"

	"pwf/internal/obs"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// Process is one simulated algorithm instance. Each call to Step
// performs exactly one shared-memory operation on mem and reports
// whether a method invocation completed at this step. Once an
// invocation completes, the next Step implicitly begins a new one
// (every process performs an infinite sequence of operations, matching
// the analysis in Section 6).
type Process interface {
	Step(mem *shmem.Memory) (completed bool)
}

// Machine simulation errors.
var (
	ErrNoProcs       = errors.New("machine: no processes")
	ErrProcMismatch  = errors.New("machine: scheduler and process count differ")
	ErrNoCompletions = errors.New("machine: no completions observed")
)

// Sim couples processes, a scheduler, and a memory, and accumulates
// latency metrics in its embedded Window while running.
type Sim struct {
	Window

	mem   *shmem.Memory
	procs []Process
	sch   sched.Scheduler

	steps uint64

	// hook, when set, observes every completion event.
	hook func(step uint64, pid int)

	// Telemetry, off by default: with ops nil, every step takes the
	// fast path behind one predictable branch (see obs bench_test.go).
	// SetRecorder allocates ops, the per-process operation
	// bookkeeping, and sets exactly one of rec (the event path) and
	// cnt (the counting path for an *obs.Metrics).
	rec obs.Recorder
	cnt *counter
	ops []opCell
}

// New builds a simulator. The scheduler must govern exactly
// len(procs) processes.
func New(mem *shmem.Memory, procs []Process, sch sched.Scheduler) (*Sim, error) {
	if mem == nil {
		return nil, errors.New("machine: nil memory")
	}
	if len(procs) == 0 {
		return nil, ErrNoProcs
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("machine: process %d is nil", i)
		}
	}
	if sch == nil {
		return nil, errors.New("machine: nil scheduler")
	}
	if sch.N() != len(procs) {
		return nil, fmt.Errorf("%w: scheduler %d vs %d", ErrProcMismatch, sch.N(), len(procs))
	}
	s := &Sim{mem: mem, procs: procs, sch: sch}
	s.Window = Window{clock: &s.steps, ind: make([]indCell, len(procs))}
	return s, nil
}

// N returns the number of processes.
func (s *Sim) N() int { return len(s.procs) }

// ProcessAt returns the pid-th process, for extracting
// algorithm-specific metrics after a run.
func (s *Sim) ProcessAt(pid int) (Process, bool) {
	if pid < 0 || pid >= len(s.procs) {
		return nil, false
	}
	return s.procs[pid], true
}

// Step advances the simulation by one time unit: the scheduler picks a
// process, which takes one shared-memory step. With telemetry on, the
// step's Outcome comes from the memory's operation counters around it
// and drives pid's operation bookkeeping, either counted into the
// Tally or emitted as events.
func (s *Sim) Step() error {
	pid, err := s.sch.Next()
	if err != nil {
		return fmt.Errorf("machine: schedule step %d: %w", s.steps, err)
	}
	s.steps++
	if s.ops == nil {
		if s.procs[pid].Step(s.mem) {
			s.complete(pid)
		}
		return nil
	}
	before := s.mem.Counters()
	completed := s.procs[pid].Step(s.mem)
	o := stepOutcome(before, s.mem.Counters(), completed)
	if c := s.cnt; c != nil {
		c.count(&s.ops[pid], o)
		c.tick()
	} else {
		s.emit(pid, o)
	}
	if completed {
		s.complete(pid)
	}
	return nil
}

// emit records one step with outcome o as events, in stream order.
func (s *Sim) emit(pid int, o Outcome) {
	step := s.steps
	s.rec.Record(obs.Event{Kind: obs.KindSched, Step: step, PID: pid})
	begin, retry, fails, attempts := s.ops[pid].advance(o)
	if begin != 0 {
		s.rec.Record(obs.Event{Kind: obs.KindBegin, Step: step, PID: pid})
	} else if retry != 0 {
		s.rec.Record(obs.Event{Kind: obs.KindRetry, Step: step, PID: pid, Attempts: fails})
	}
	if o&CAS != 0 {
		s.rec.Record(obs.Event{Kind: obs.KindCAS, Step: step, PID: pid, OK: o&CASFailed == 0})
	}
	if o&Completed != 0 {
		s.rec.Record(obs.Event{Kind: obs.KindComplete, Step: step, PID: pid, Attempts: attempts})
	}
}

// complete records a completion by pid at the current step in the
// metrics window and reports it to the completion hook.
func (s *Sim) complete(pid int) {
	s.record(pid, s.steps)
	if s.hook != nil {
		s.hook(s.steps, pid)
	}
}

// SetCompletionHook registers fn to observe every completion event
// (system step number and completing process). Pass nil to remove the
// hook. Package progress uses this to build histories.
func (s *Sim) SetCompletionHook(fn func(step uint64, pid int)) { s.hook = fn }

// SetRecorder installs r as the step-level telemetry sink. Passing nil
// or obs.Nop disables telemetry; the disabled hooks cost a single
// branch per step. An *obs.Metrics is counted on the fast path: every
// step adds into a plain per-simulator obs.Tally, merged into r at the
// end of each Run and at least every 1<<16 steps. Any other recorder
// receives every step's scheduling, operation-begin, CAS, retry and
// completion events (see package obs for the event schema); so does a
// Metrics behind obs.Multi, with the same totals.
func (s *Sim) SetRecorder(r obs.Recorder) {
	if s.cnt != nil {
		s.cnt.flush()
	}
	if r == obs.Nop {
		r = nil
	}
	s.rec, s.cnt = nil, nil
	if r == nil {
		s.ops = nil
		return
	}
	if s.ops == nil {
		s.ops = make([]opCell, len(s.procs))
	}
	if m, ok := r.(*obs.Metrics); ok {
		s.cnt = &counter{m: m, ops: s.ops, width: 1}
	} else {
		s.rec = r
	}
}

// Run advances the simulation by steps time units. When no recorder
// is installed — the configuration every unobserved sweep job runs
// in — it drops into a tight loop that skips the per-step feature
// checks, so one simulated step is one scheduler draw, one process
// step, and nothing else: no allocation, no trace plumbing
// (TestRunZeroAllocs pins this). A counting recorder is brought up to
// date before Run returns.
func (s *Sim) Run(steps uint64) error {
	if s.ops != nil {
		var err error
		for i := uint64(0); i < steps && err == nil; i++ {
			err = s.Step()
		}
		if s.cnt != nil {
			s.cnt.flush()
		}
		return err
	}
	for i := uint64(0); i < steps; i++ {
		pid, err := s.sch.Next()
		if err != nil {
			return fmt.Errorf("machine: schedule step %d: %w", s.steps, err)
		}
		s.steps++
		if s.procs[pid].Step(s.mem) {
			// s.complete(pid), spelled out: neither call inlines.
			s.record(pid, s.steps)
			if s.hook != nil {
				s.hook(s.steps, pid)
			}
		}
	}
	return nil
}

// Steps returns the total number of time units simulated.
func (s *Sim) Steps() uint64 { return s.steps }
