package scu

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// scalarRun is one freshly built scalar replica: its processes, its
// shared memory (already initialized when the workload needs it), and
// the post-run invariant check when the workload has one.
type scalarRun struct {
	procs []machine.Process
	mem   *shmem.Memory
	check func() error
}

// groupCase wires one workload's scalar and batched forms.
type groupCase struct {
	name   string
	scalar func(n int) (scalarRun, error)
	batch  func(k, n int) (machine.BatchGroup, error)
}

// simpleScalar adapts the register-only workloads, whose memory is a
// zeroed layout and whose group constructor is independent of it.
func simpleScalar(layout int, group func(n int) ([]machine.Process, error)) func(n int) (scalarRun, error) {
	return func(n int) (scalarRun, error) {
		procs, err := group(n)
		if err != nil {
			return scalarRun{}, err
		}
		mem, err := shmem.New(layout)
		return scalarRun{procs: procs, mem: mem}, err
	}
}

// testPool is the per-process node pool of the pointer-based cases:
// small enough that a 5000-step run recycles slots through the
// precise-GC scan many times over.
const testPool = 8

// rcuReaders mirrors sweep's read-mostly split (~3/4 readers).
func rcuReaders(n int) int { return n - 1 - (n-1)/4 }

func groupCases() []groupCase {
	counterOps := func(pid int, seq int64) int64 { return 1 }
	return []groupCase{
		{
			"scu-q0-s1",
			simpleScalar(SCULayout(1), func(n int) ([]machine.Process, error) { return NewSCUGroup(n, 0, 1, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewSCUBatch(k, n, 0, 1) },
		},
		{
			"scu-q2-s3",
			simpleScalar(SCULayout(3), func(n int) ([]machine.Process, error) { return NewSCUGroup(n, 2, 3, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewSCUBatch(k, n, 2, 3) },
		},
		{
			"parallel-q4",
			simpleScalar(1, func(n int) ([]machine.Process, error) { return NewParallelGroup(n, 4, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewParallelBatch(k, n, 4) },
		},
		{
			"fetchinc",
			simpleScalar(FetchIncLayout, func(n int) ([]machine.Process, error) { return NewFetchIncGroup(n, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewFetchIncBatch(k, n) },
		},
		{
			"unbounded",
			simpleScalar(UnboundedLayout, func(n int) ([]machine.Process, error) { return NewUnboundedGroup(n, 0, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewUnboundedBatch(k, n, 0) },
		},
		{
			"stack",
			func(n int) (scalarRun, error) {
				st, err := NewStack(n, testPool, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(StackLayout(n, testPool))
				if err != nil {
					return scalarRun{}, err
				}
				procs, err := st.Processes()
				return scalarRun{procs: procs, mem: mem, check: st.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewStackBatch(k, n, testPool) },
		},
		{
			"queue",
			func(n int) (scalarRun, error) {
				qu, err := NewQueue(n, testPool, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(QueueLayout(n, testPool))
				if err != nil {
					return scalarRun{}, err
				}
				qu.Init(mem)
				procs, err := qu.Processes()
				return scalarRun{procs: procs, mem: mem, check: qu.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewQueueBatch(k, n, testPool) },
		},
		{
			"rcu",
			func(n int) (scalarRun, error) {
				readers := rcuReaders(n)
				r, err := NewRCU(n, readers, testPool, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(RCULayout(n-readers, testPool))
				if err != nil {
					return scalarRun{}, err
				}
				procs, err := r.Processes()
				return scalarRun{procs: procs, mem: mem, check: r.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewRCUBatch(k, n, rcuReaders(n), testPool) },
		},
		{
			"lfuniversal",
			func(n int) (scalarRun, error) {
				u, err := NewLFUniversal(CounterObject{}, n, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(LFUniversalLayout)
				if err != nil {
					return scalarRun{}, err
				}
				procs, err := u.Processes(counterOps)
				return scalarRun{procs: procs, mem: mem, check: u.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewLFUniversalBatch(k, n) },
		},
	}
}

// outcomeLog wraps a batch group and keeps every replica's step
// outcomes in order.
type outcomeLog struct {
	machine.BatchGroup
	outs [][]machine.Outcome // [r][step]
}

func (g *outcomeLog) StepBatch(pids []int32, out []machine.Outcome) {
	g.BatchGroup.StepBatch(pids, out)
	for r, o := range out {
		g.outs[r] = append(g.outs[r], o)
	}
}

// counterProc wraps a scalar process and logs, per step, the outcome
// its memory's operation counters show: a completion, and a CAS that
// succeeded or failed.
type counterProc struct {
	machine.Process
	outs *[]machine.Outcome
}

func (p counterProc) Step(mem *shmem.Memory) bool {
	before := mem.Counters()
	done := p.Process.Step(mem)
	after := mem.Counters()
	var o machine.Outcome
	if done {
		o |= machine.Completed
	}
	if after.CASes > before.CASes {
		o |= machine.CAS
		if after.CASFailures > before.CASFailures {
			o |= machine.CASFailed
		}
	}
	*p.outs = append(*p.outs, o)
	return done
}

// TestBatchSimMatchesScalarSims runs a BatchSim (uniform batch drawer
// + batch group) against K scalar Sims built from the same seeds and
// demands bit-identical metrics for every replica — including across
// a mid-run ResetMetrics, mirroring the warmup flow of the sweep runner
// — and, at every step, the Outcome the batch group reports equal to
// the one the scalar memory counters show.
func TestBatchSimMatchesScalarSims(t *testing.T) {
	const (
		n      = 17
		k      = 4
		warmup = 500
		steps  = 5000
	)
	seeds := make([]uint64, k)
	for r := range seeds {
		seeds[r] = uint64(42 + 13*r)
	}
	for _, tc := range groupCases() {
		for _, crashes := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/crash=%d", tc.name, crashes), func(t *testing.T) {
				group, err := tc.batch(k, n)
				if err != nil {
					t.Fatal(err)
				}
				drawer, err := sched.NewUniformBatch(n, seeds)
				if err != nil {
					t.Fatal(err)
				}
				sims := make([]*machine.Sim, k)
				schs := make([]sched.Scheduler, k)
				checks := make([]func() error, k)
				scalarOuts := make([][]machine.Outcome, k)
				for r := 0; r < k; r++ {
					sr, err := tc.scalar(n)
					if err != nil {
						t.Fatal(err)
					}
					for pid, p := range sr.procs {
						sr.procs[pid] = counterProc{p, &scalarOuts[r]}
					}
					checks[r] = sr.check
					if schs[r], err = sched.NewUniform(n, rng.New(seeds[r])); err != nil {
						t.Fatal(err)
					}
					if sims[r], err = machine.New(sr.mem, sr.procs, schs[r]); err != nil {
						t.Fatal(err)
					}
				}
				var bc sched.Crasher = drawer
				for pid := n - crashes; pid < n; pid++ {
					if err := bc.Crash(pid); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < k; r++ {
						if err := schs[r].(sched.Crasher).Crash(pid); err != nil {
							t.Fatal(err)
						}
					}
				}
				logged := &outcomeLog{BatchGroup: group, outs: make([][]machine.Outcome, k)}
				bs, err := machine.NewBatchSim(logged, drawer)
				if err != nil {
					t.Fatal(err)
				}
				run := func(count uint64) {
					if err := bs.Run(count); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < k; r++ {
						if err := sims[r].Run(count); err != nil {
							t.Fatal(err)
						}
					}
				}

				run(warmup)
				bs.ResetMetrics()
				for r := 0; r < k; r++ {
					sims[r].ResetMetrics()
				}
				run(steps)

				for r := 0; r < k; r++ {
					compareReplica(t, bs, sims[r], r)
					compareOutcomes(t, logged.outs[r], scalarOuts[r], r)
				}

				// The batched form must expose per-replica invariant
				// checks exactly when the scalar workload has one, and
				// both must agree — message-for-message.
				chk, hasBatchCheck := group.(machine.BatchChecker)
				if hasBatchCheck != (checks[0] != nil) {
					t.Fatalf("BatchChecker = %v, scalar check = %v", hasBatchCheck, checks[0] != nil)
				}
				if hasBatchCheck {
					for r := 0; r < k; r++ {
						berr, serr := chk.CheckReplica(r), checks[r]()
						bmsg, smsg := "", ""
						if berr != nil {
							bmsg = berr.Error()
						}
						if serr != nil {
							smsg = serr.Error()
						}
						if bmsg != smsg {
							t.Errorf("replica %d: CheckReplica = %q, scalar check %q", r, bmsg, smsg)
						}
					}
				}
			})
		}
	}
}

// compareOutcomes checks replica r's per-step outcomes from the batch
// group against the scalar memory counters' view of the same steps.
func compareOutcomes(t *testing.T, batch, scalar []machine.Outcome, r int) {
	t.Helper()
	if len(batch) != len(scalar) {
		t.Fatalf("replica %d: %d batch outcomes vs %d scalar steps", r, len(batch), len(scalar))
	}
	for i := range batch {
		if batch[i] != scalar[i] {
			t.Fatalf("replica %d step %d: batch outcome %03b, scalar counters %03b", r, i+1, batch[i], scalar[i])
		}
	}
}

// compareReplica checks every metric accessor of replica r's window
// in bs — filled by the lockstep batch loop — against the scalar
// sim's window, filled by the Process loop, bit-exactly.
func compareReplica(t *testing.T, bs *machine.BatchSim, s *machine.Sim, r int) {
	t.Helper()
	w, err := bs.Replica(r)
	if err != nil {
		t.Fatal(err)
	}
	bSys, bErr := w.SystemLatency()
	sSys, sErr := s.SystemLatency()
	if bSys != sSys || (bErr == nil) != (sErr == nil) {
		t.Errorf("replica %d: SystemLatency = %v/%v, scalar %v/%v", r, bSys, bErr, sSys, sErr)
	}
	bInd, bErr := w.MeanIndividualLatency()
	sInd, sErr := s.MeanIndividualLatency()
	if bInd != sInd || (bErr == nil) != (sErr == nil) {
		t.Errorf("replica %d: MeanIndividualLatency = %v/%v, scalar %v/%v", r, bInd, bErr, sInd, sErr)
	}
	if got, want := w.CompletionRate(), s.CompletionRate(); got != want {
		t.Errorf("replica %d: CompletionRate = %v, scalar %v", r, got, want)
	}
	bRatio, bErr := w.SystemLatencyRatio()
	sRatio, sErr := s.SystemLatencyRatio()
	if bRatio != sRatio || (bErr == nil) != (sErr == nil) {
		t.Errorf("replica %d: SystemLatencyRatio = %v/%v, scalar %v/%v", r, bRatio, bErr, sRatio, sErr)
	}
	for pid := 0; pid < s.N(); pid++ {
		bGap, _ := w.MaxIndividualGap(pid)
		sGap, _ := s.MaxIndividualGap(pid)
		bLat, bErr := w.IndividualLatency(pid)
		sLat, sErr := s.IndividualLatency(pid)
		if bGap != sGap || bLat != sLat || (bErr == nil) != (sErr == nil) {
			t.Errorf("replica %d pid %d: max gap %d, latency %v/%v; scalar %d, %v/%v",
				r, pid, bGap, bLat, bErr, sGap, sLat, sErr)
		}
	}
	bFair, sFair := w.FairnessIndex(), s.FairnessIndex()
	if bFair != sFair && !(bFair != bFair && sFair != sFair) { // NaN-tolerant
		t.Errorf("replica %d: FairnessIndex = %v, scalar %v", r, bFair, sFair)
	}
	if got, want := w.TotalCompletions(), s.TotalCompletions(); got != want {
		t.Errorf("replica %d: TotalCompletions = %d, scalar %d", r, got, want)
	}
	bComp, sComp := w.Completions(), s.Completions()
	for pid := range sComp {
		if bComp[pid] != sComp[pid] {
			t.Errorf("replica %d: Completions[%d] = %d, scalar %d", r, pid, bComp[pid], sComp[pid])
		}
	}
	bStarved, sStarved := w.StarvedProcesses(), s.StarvedProcesses()
	if len(bStarved) != len(sStarved) {
		t.Errorf("replica %d: %d starved, scalar %d", r, len(bStarved), len(sStarved))
	} else {
		for i := range sStarved {
			if bStarved[i] != sStarved[i] {
				t.Errorf("replica %d: starved[%d] = %d, scalar %d", r, i, bStarved[i], sStarved[i])
			}
		}
	}
}

// TestStepPathsZeroAllocs pins the steady-state allocation contract
// of every workload with a batched form: after a warmup that lets the
// pools and the shadow-structure capacities stabilize, both the
// replica-batched StepBatch loop and the scalar Process loop allocate
// nothing. The pointer-based forms recycle pool slots, never heap
// nodes, and the queue's shadow FIFO (refFIFO, in both forms) reuses
// its buffer.
func TestStepPathsZeroAllocs(t *testing.T) {
	const (
		n = 9
		k = 4
	)
	for _, tc := range groupCases() {
		t.Run(tc.name, func(t *testing.T) {
			sr, err := tc.scalar(n)
			if err != nil {
				t.Fatal(err)
			}
			sch, err := sched.NewUniform(n, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			sim, err := machine.New(sr.mem, sr.procs, sch)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(5000); err != nil {
				t.Fatal(err)
			}
			scalarAllocs := testing.AllocsPerRun(50, func() {
				if err := sim.Run(200); err != nil {
					t.Fatal(err)
				}
			})

			group, err := tc.batch(k, n)
			if err != nil {
				t.Fatal(err)
			}
			seeds := make([]uint64, k)
			for r := range seeds {
				seeds[r] = uint64(7 + r)
			}
			drawer, err := sched.NewUniformBatch(n, seeds)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := machine.NewBatchSim(group, drawer)
			if err != nil {
				t.Fatal(err)
			}
			if err := bs.Run(5000); err != nil {
				t.Fatal(err)
			}
			batchAllocs := testing.AllocsPerRun(50, func() {
				if err := bs.Run(200); err != nil {
					t.Fatal(err)
				}
			})

			if batchAllocs != 0 {
				t.Errorf("batched Run allocated %v/run for %d replicas, want 0", batchAllocs, k)
			}
			if scalarAllocs != 0 {
				t.Errorf("scalar Run allocated %v/run, want 0", scalarAllocs)
			}
		})
	}
}

// TestBatchPoolsFollowUse pins the memory of the row-grown pools: a
// 16-wide group at n = 1024 with the default 64-slot pools allocates
// the pool rows its processes reach, not the 1024 × 64 slots per
// replica that reserving every pool up front costs (35, 35 and 12 MB
// for the stack, the queue and RCU). The bound covers construction,
// the drawer, the simulator and 20,000 uniform steps per replica.
func TestBatchPoolsFollowUse(t *testing.T) {
	const (
		k, n, pool = 16, 1024, 64
		steps      = 20000
		bound      = 8 << 20
	)
	seeds := make([]uint64, k)
	for r := range seeds {
		seeds[r] = uint64(r + 1)
	}
	for _, tc := range []struct {
		name  string
		build func() (machine.BatchGroup, error)
	}{
		{"stack", func() (machine.BatchGroup, error) { return NewStackBatch(k, n, pool) }},
		{"queue", func() (machine.BatchGroup, error) { return NewQueueBatch(k, n, pool) }},
		{"rcu", func() (machine.BatchGroup, error) { return NewRCUBatch(k, n, rcuReaders(n), pool) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		group, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		drawer, err := sched.NewUniformBatch(n, seeds)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := machine.NewBatchSim(group, drawer)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.Run(steps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s: allocated %.1f MB, want under %d MB", tc.name, float64(got)/(1<<20), bound>>20)
		}
		if err := group.(machine.BatchChecker).CheckReplica(0); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestBatchGroupErrors exercises the constructor edges.
func TestBatchGroupErrors(t *testing.T) {
	for _, fn := range []func() error{
		func() error { _, err := NewSCUBatch(0, 4, 0, 1); return err },
		func() error { _, err := NewSCUBatch(2, 0, 0, 1); return err },
		func() error { _, err := NewSCUBatch(2, 4, -1, 1); return err },
		func() error { _, err := NewSCUBatch(2, 4, 0, 0); return err },
		func() error { _, err := NewParallelBatch(2, 4, 0); return err },
		func() error { _, err := NewParallelBatch(0, 4, 1); return err },
		func() error { _, err := NewFetchIncBatch(0, 4); return err },
		func() error { _, err := NewFetchIncBatch(2, 0); return err },
		func() error { _, err := NewStackBatch(0, 4, 8); return err },
		func() error { _, err := NewStackBatch(2, 0, 8); return err },
		func() error { _, err := NewStackBatch(2, 4, 0); return err },
		func() error { _, err := NewQueueBatch(0, 4, 8); return err },
		func() error { _, err := NewQueueBatch(2, 4, -1); return err },
		func() error { _, err := NewRCUBatch(2, 4, 2, 0); return err },
		func() error { _, err := NewRCUBatch(2, 4, -1, 8); return err },
		func() error { _, err := NewRCUBatch(2, 4, 4, 8); return err },
		func() error { _, err := NewUnboundedBatch(0, 4, 0); return err },
		func() error { _, err := NewUnboundedBatch(2, 4, -1); return err },
		func() error { _, err := NewLFUniversalBatch(0, 4); return err },
		func() error { _, err := NewLFUniversalBatch(2, 0); return err },
	} {
		if err := fn(); !errors.Is(err, ErrBadParams) {
			t.Errorf("constructor edge: err = %v, want ErrBadParams", err)
		}
	}
}

// procGroup adapts a scalar process group to machine.BatchGroup at
// one replica, so the lockstep loop can step the Process forms.
type procGroup struct {
	mem   *shmem.Memory
	procs []machine.Process
}

func (g *procGroup) K() int { return 1 }
func (g *procGroup) N() int { return len(g.procs) }

func (g *procGroup) StepBatch(pids []int32, out []machine.Outcome) {
	out[0] = 0
	if g.procs[pids[0]].Step(g.mem) {
		out[0] = machine.Completed
	}
}

// BenchmarkStepLoopsK1 times one SCU(0,1) replica through each step
// loop: Sim.Run over the Process forms ("scalar"), BatchSim.Run over
// the same processes behind procGroup ("batchsim-procs"), and
// BatchSim.Run over SCUBatch at K = 1 ("batchsim-scubatch"). It is the
// measurement behind keeping two step loops: a lone point would pay
// the lockstep loop's per-step slice and interface traffic without
// any replicas to amortize it over.
func BenchmarkStepLoopsK1(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		scalar := func(b *testing.B) (*shmem.Memory, []machine.Process) {
			procs, err := NewSCUGroup(n, 0, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			mem, err := shmem.New(SCULayout(1))
			if err != nil {
				b.Fatal(err)
			}
			return mem, procs
		}
		batch := func(b *testing.B, group machine.BatchGroup) *machine.BatchSim {
			drawer, err := sched.NewUniformBatch(n, []uint64{1})
			if err != nil {
				b.Fatal(err)
			}
			bs, err := machine.NewBatchSim(group, drawer)
			if err != nil {
				b.Fatal(err)
			}
			return bs
		}
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			mem, procs := scalar(b)
			sch, err := sched.NewUniform(n, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			sim, err := machine.New(mem, procs, sch)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := sim.Run(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("batchsim-procs/n=%d", n), func(b *testing.B) {
			mem, procs := scalar(b)
			bs := batch(b, &procGroup{mem: mem, procs: procs})
			b.ResetTimer()
			if err := bs.Run(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("batchsim-scubatch/n=%d", n), func(b *testing.B) {
			group, err := NewSCUBatch(1, n, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			bs := batch(b, group)
			b.ResetTimer()
			if err := bs.Run(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}
