package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pwf/internal/machine"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

// WorkloadKind names a simulated algorithm family.
type WorkloadKind string

// The supported workload kinds, one -algos name each in
// cmd/pwfsweep.
const (
	SCU         WorkloadKind = "scu"         // Algorithm 2, SCU(q, s)
	Parallel    WorkloadKind = "parallel"    // Algorithm 4, q-step parallel code
	FetchInc    WorkloadKind = "fetchinc"    // Algorithm 5, augmented-CAS counter
	Unbounded   WorkloadKind = "unbounded"   // Algorithm 1, unbounded lock-free
	Stack       WorkloadKind = "stack"       // Treiber stack
	Queue       WorkloadKind = "queue"       // Michael–Scott queue
	RCU         WorkloadKind = "rcu"         // read-mostly RCU-style workload
	List        WorkloadKind = "list"        // Harris-style ordered list
	HashSet     WorkloadKind = "hashset"     // striped hash set
	LFUniversal WorkloadKind = "lfuniversal" // lock-free universal construction
	WFUniversal WorkloadKind = "wfuniversal" // wait-free universal construction
)

// Workload is a declarative description of the simulated algorithm of
// one job, written as a literal, compared and serialized. A zero
// WaitFactor or PoolSize selects the documented default; Q and S have
// none, and Validate checks their ranges.
type Workload struct {
	Kind WorkloadKind `json:"kind"`
	// Q is the preamble length (SCU, >= 0) or the steps per operation
	// (Parallel, >= 1).
	Q int `json:"q,omitempty"`
	// S is the scan length (SCU, >= 1).
	S int `json:"s,omitempty"`
	// WaitFactor scales the losers' wait loop of Algorithm 1
	// (Unbounded); 0 selects the paper's n².
	WaitFactor int64 `json:"wait_factor,omitempty"`
	// PoolSize is the per-process node pool of the data-structure
	// workloads (Stack, Queue, RCU, List, HashSet, WFUniversal);
	// 0 selects 64 (32 for HashSet, 8 for WFUniversal).
	PoolSize int `json:"pool_size,omitempty"`
}

// Validate reports whether the workload is well-formed for n
// processes.
func (w Workload) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("sweep: workload %q needs n >= 1, got %d", w.Kind, n)
	}
	switch w.Kind {
	case SCU, Parallel, FetchInc, Unbounded, Stack, Queue, RCU, List,
		HashSet, LFUniversal, WFUniversal:
	default:
		return fmt.Errorf("sweep: unknown workload kind %q", w.Kind)
	}
	if w.Kind == Parallel && w.Q < 1 {
		return errors.New("sweep: parallel code needs Q >= 1")
	}
	if w.Kind == SCU && (w.Q < 0 || w.S < 1) {
		return fmt.Errorf("sweep: SCU needs Q >= 0 and S >= 1, got Q=%d S=%d", w.Q, w.S)
	}
	if w.WaitFactor < 0 {
		return fmt.Errorf("sweep: negative wait factor %d", w.WaitFactor)
	}
	if w.PoolSize < 0 {
		return fmt.Errorf("sweep: negative pool size %d", w.PoolSize)
	}
	if w.Kind == WFUniversal && w.PoolSize == 1 {
		return errors.New("sweep: wfuniversal needs pool size >= 2, got 1")
	}
	if owners, extra := w.poolOwners(n); owners > 0 && w.poolSize() > (scu.MaxPoolSlots-extra)/owners {
		return fmt.Errorf("%w: %s at n=%d needs %d pools of %d slots and %d more, over the %d a ref numbers",
			ErrPoolTooLarge, w.Kind, n, owners, w.poolSize(), extra, scu.MaxPoolSlots)
	}
	return nil
}

// ErrPoolTooLarge marks a data-structure workload with more node
// slots than a ref can number: slot numbers past scu.MaxPoolSlots
// would spill into the ref's tag and alias other slots.
var ErrPoolTooLarge = errors.New("sweep: node pool too large for its refs")

// poolSize returns the configured pool size or the kind's default.
func (w Workload) poolSize() int {
	switch {
	case w.PoolSize > 0:
		return w.PoolSize
	case w.Kind == HashSet:
		return 32
	case w.Kind == WFUniversal:
		return 8
	}
	return 64
}

// poolOwners returns how the kind's constructor numbers its node
// slots: owners pools of poolSize slots, plus extra shared slots (the
// queue's initial dummy, the list's two sentinels, the wait-free
// universal object's initial node; a hash set numbers each bucket's
// list apart). owners is 0 for the kinds without node pools.
func (w Workload) poolOwners(n int) (owners, extra int) {
	switch w.Kind {
	case Stack:
		return n, 0
	case Queue, WFUniversal:
		return n, 1
	case List, HashSet:
		return n, 2
	case RCU:
		return n - rcuReaders(n), 0
	}
	return 0, 0
}

// rcuReaders is the RCU workload's read-mostly split: about 3/4 of
// the n processes only read.
func rcuReaders(n int) int { return n - 1 - (n-1)/4 }

// built is an assembled workload: the simulated memory, the process
// group, and an optional post-run invariant check (data-structure
// workloads verify linearizability witnesses after the run).
type built struct {
	mem   *shmem.Memory
	procs []machine.Process
	check func() error
}

// build assembles the workload for n processes.
func (w Workload) build(n int) (built, error) {
	switch w.Kind {
	case SCU:
		mem, err := shmem.New(scu.SCULayout(w.S))
		if err != nil {
			return built{}, err
		}
		procs, err := scu.NewSCUGroup(n, w.Q, w.S, 0)
		return built{mem: mem, procs: procs}, err
	case Parallel:
		mem, err := shmem.New(1)
		if err != nil {
			return built{}, err
		}
		procs, err := scu.NewParallelGroup(n, w.Q, 0)
		return built{mem: mem, procs: procs}, err
	case FetchInc:
		mem, err := shmem.New(scu.FetchIncLayout)
		if err != nil {
			return built{}, err
		}
		procs, err := scu.NewFetchIncGroup(n, 0)
		return built{mem: mem, procs: procs}, err
	case Unbounded:
		mem, err := shmem.New(scu.UnboundedLayout)
		if err != nil {
			return built{}, err
		}
		procs, err := scu.NewUnboundedGroup(n, 0, w.WaitFactor)
		return built{mem: mem, procs: procs}, err
	case Stack:
		pool := w.poolSize()
		st, err := scu.NewStack(n, pool, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.StackLayout(n, pool))
		if err != nil {
			return built{}, err
		}
		procs, err := st.Processes()
		return built{mem: mem, procs: procs, check: st.Check}, err
	case Queue:
		pool := w.poolSize()
		qu, err := scu.NewQueue(n, pool, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.QueueLayout(n, pool))
		if err != nil {
			return built{}, err
		}
		qu.Init(mem)
		procs, err := qu.Processes()
		return built{mem: mem, procs: procs, check: qu.Check}, err
	case RCU:
		pool := w.poolSize()
		readers := rcuReaders(n)
		r, err := scu.NewRCU(n, readers, pool, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.RCULayout(n-readers, pool))
		if err != nil {
			return built{}, err
		}
		procs, err := r.Processes()
		return built{mem: mem, procs: procs, check: r.Check}, err
	case List:
		const keyspace = 32
		pool := w.poolSize()
		l, err := scu.NewList(n, pool, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.ListLayout(n, pool))
		if err != nil {
			return built{}, err
		}
		l.Init(mem)
		procs, err := l.Processes(keyspace)
		return built{mem: mem, procs: procs}, err
	case HashSet:
		const (
			buckets  = 8
			keyspace = 64
		)
		pool := w.poolSize()
		h, err := scu.NewHashSet(n, buckets, pool, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.HashSetLayout(n, buckets, pool))
		if err != nil {
			return built{}, err
		}
		h.Init(mem)
		procs, err := h.Processes(keyspace)
		return built{mem: mem, procs: procs}, err
	case LFUniversal:
		u, err := scu.NewLFUniversal(scu.CounterObject{}, n, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.LFUniversalLayout)
		if err != nil {
			return built{}, err
		}
		procs, err := u.Processes(func(pid int, seq int64) int64 { return 1 })
		return built{mem: mem, procs: procs, check: u.Check}, err
	case WFUniversal:
		pool := w.poolSize()
		u, err := scu.NewWFUniversal(scu.CounterObject{}, n, pool, 0)
		if err != nil {
			return built{}, err
		}
		mem, err := shmem.New(scu.WFUniversalLayout(n, pool))
		if err != nil {
			return built{}, err
		}
		u.Init(mem)
		procs, err := u.Processes(func(pid int, seq int64) int64 { return 1 })
		return built{mem: mem, procs: procs}, err
	default:
		return built{}, fmt.Errorf("sweep: unknown workload kind %q", w.Kind)
	}
}

// SchedKind names a scheduler family.
type SchedKind string

// The supported scheduler kinds.
const (
	SchedUniform    SchedKind = "uniform"    // the paper's uniform stochastic scheduler
	SchedSticky     SchedKind = "sticky"     // Markov-modulated, reschedules with prob. Rho
	SchedRoundRobin SchedKind = "roundrobin" // deterministic fair baseline
	SchedLottery    SchedKind = "lottery"    // ticket-based lottery scheduling
	SchedWeighted   SchedKind = "weighted"   // fixed arbitrary distribution
	SchedPhased     SchedKind = "phased"     // cyclic time-varying weighted phases
	SchedAdversary  SchedKind = "adversary"  // singles out Victim, θ = 0
)

// PhaseSpec is one segment of a phased schedule: the per-process
// weights and the segment length in steps.
type PhaseSpec struct {
	// Weights gives each process's scheduling weight in this phase;
	// all must be strictly positive.
	Weights []float64 `json:"weights"`
	// Steps is the phase length; must be >= 1.
	Steps uint64 `json:"steps"`
}

// SchedulerSpec is a declarative description of a scheduler, buildable
// for any n and seed. The zero value is the uniform scheduler.
//
// SchedulerSpec has two interchangeable JSON forms: the object form
// ({"kind":"sticky","rho":0.9}) and the compact string form
// ("sticky:0.9"), which is exactly the CLI grammar of ParseScheduler.
// Marshaling always emits the object form (the canonical wire
// encoding); Unmarshal accepts either.
type SchedulerSpec struct {
	Kind SchedKind `json:"kind,omitempty"`
	// Rho is the stickiness in [0, 1) (Sticky only).
	Rho float64 `json:"rho,omitempty"`
	// Tickets are the per-process lottery tickets (Lottery only); nil
	// gives every process one ticket.
	Tickets []int `json:"tickets,omitempty"`
	// Weights are the per-process scheduling weights (Weighted only);
	// nil gives every process weight 1 (i.e. uniform).
	Weights []float64 `json:"weights,omitempty"`
	// Phases are the cyclic schedule segments (Phased only).
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Victim is the process the adversary singles out (Adversary only).
	Victim int `json:"victim,omitempty"`
}

// Validate reports whether the spec is well-formed for n processes.
// The parameter checks are the ones the sched constructors run, so a
// spec that validates always builds.
func (s SchedulerSpec) Validate(n int) error {
	switch s.Kind {
	case "", SchedUniform, SchedRoundRobin:
		return nil
	case SchedSticky:
		return sched.CheckStickiness(s.Rho)
	case SchedLottery:
		if s.Tickets == nil {
			return nil
		}
		if len(s.Tickets) != n {
			return fmt.Errorf("sweep: %d tickets for %d processes", len(s.Tickets), n)
		}
		_, err := sched.CheckTickets(s.Tickets)
		return err
	case SchedWeighted:
		if s.Weights == nil {
			return nil
		}
		if len(s.Weights) != n {
			return fmt.Errorf("sweep: %d weights for %d processes", len(s.Weights), n)
		}
		_, err := sched.CheckWeights(s.Weights)
		return err
	case SchedPhased:
		_, err := sched.CheckPhases(n, s.phases())
		return err
	case SchedAdversary:
		if s.Victim < 0 || s.Victim >= n {
			return fmt.Errorf("sweep: adversary victim %d out of range [0, %d)", s.Victim, n)
		}
		return nil
	default:
		return fmt.Errorf("sweep: unknown scheduler kind %q", s.Kind)
	}
}

// build constructs the scheduler for n processes with one replica per
// seed: replica r draws its randomness from seeds[r]. runPoints builds
// a single replica for the scalar machine and one per point of a
// batch.
func (s SchedulerSpec) build(n int, seeds []uint64) (sched.BatchDrawer, error) {
	switch s.Kind {
	case "", SchedUniform:
		return sched.NewUniformBatch(n, seeds)
	case SchedRoundRobin:
		return sched.NewRoundRobinBatch(n, len(seeds))
	case SchedSticky:
		return sched.NewStickyBatch(n, s.Rho, seeds)
	case SchedLottery:
		tickets := s.Tickets
		if tickets == nil {
			tickets = make([]int, n)
			for i := range tickets {
				tickets[i] = 1
			}
		}
		return sched.NewLotteryBatch(tickets, seeds)
	case SchedWeighted:
		weights := s.Weights
		if weights == nil {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 1
			}
		}
		return sched.NewWeightedBatch(weights, seeds)
	case SchedPhased:
		return sched.NewPhasedBatch(n, s.phases(), seeds)
	case SchedAdversary:
		return sched.NewAdversarialBatch(n, len(seeds), sched.SingleOut(s.Victim))
	default:
		return nil, fmt.Errorf("sweep: unknown scheduler kind %q", s.Kind)
	}
}

// phases converts the spec's phases to the sched form.
func (s SchedulerSpec) phases() []sched.Phase {
	phases := make([]sched.Phase, len(s.Phases))
	for i, ph := range s.Phases {
		phases[i] = sched.Phase{Weights: ph.Weights, Steps: ph.Steps}
	}
	return phases
}

// String renders the spec in the shared scheduler grammar (e.g.
// "uniform", "sticky:0.9", "lottery:1,2,4", "phased:3,1@50/1,3@50").
// The rendering round-trips: ParseScheduler(s.String()) reproduces s.
func (s SchedulerSpec) String() string {
	switch s.Kind {
	case "", SchedUniform:
		return string(SchedUniform)
	case SchedSticky:
		return fmt.Sprintf("sticky:%g", s.Rho)
	case SchedLottery:
		if s.Tickets == nil {
			return string(SchedLottery)
		}
		parts := make([]string, len(s.Tickets))
		for i, t := range s.Tickets {
			parts[i] = strconv.Itoa(t)
		}
		return "lottery:" + strings.Join(parts, ",")
	case SchedWeighted:
		if s.Weights == nil {
			return string(SchedWeighted)
		}
		return "weighted:" + joinFloats(s.Weights)
	case SchedPhased:
		parts := make([]string, len(s.Phases))
		for i, ph := range s.Phases {
			parts[i] = fmt.Sprintf("%s@%d", joinFloats(ph.Weights), ph.Steps)
		}
		return "phased:" + strings.Join(parts, "/")
	case SchedAdversary:
		return fmt.Sprintf("adversary:%d", s.Victim)
	default:
		return string(s.Kind)
	}
}

func joinFloats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// UnmarshalJSON accepts the object form or the compact string form
// ("sticky:0.9"), the latter decoded through ParseScheduler so the
// CLI flag grammar and the wire format are one grammar.
func (s *SchedulerSpec) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, `"`) {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return err
		}
		spec, err := ParseScheduler(name)
		if err != nil {
			return err
		}
		*s = spec
		return nil
	}
	// plain decodes without recursing into this method.
	type plain SchedulerSpec
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*s = SchedulerSpec(p)
	return nil
}

// ParseScheduler parses the shared scheduler grammar used by the CLI
// -sched flags and the JSON string form of SchedulerSpec:
//
//	uniform                      the paper's uniform scheduler
//	roundrobin                   deterministic fair baseline
//	sticky:<rho>                 Markov-modulated, rho in [0, 1)
//	lottery                      one ticket per process
//	lottery:<t1>,<t2>,...        explicit tickets (fixes n)
//	weighted                     weight 1 per process
//	weighted:<w1>,<w2>,...       explicit weights (fixes n)
//	phased:<w..>@<steps>/...     cyclic phases, e.g. phased:3,1@50/1,3@50
//	adversary:<victim>           singles out one process, θ = 0
func ParseScheduler(name string) (SchedulerSpec, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	switch SchedKind(kind) {
	case SchedUniform, SchedRoundRobin:
		if hasArg {
			return SchedulerSpec{}, fmt.Errorf("sweep: scheduler %q takes no argument", kind)
		}
		return SchedulerSpec{Kind: SchedKind(kind)}, nil
	case SchedSticky:
		if !hasArg {
			return SchedulerSpec{}, errors.New(`sweep: sticky needs a stickiness, e.g. "sticky:0.9"`)
		}
		rho, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return SchedulerSpec{}, fmt.Errorf("sweep: parse sticky rho: %w", err)
		}
		if rho < 0 || rho >= 1 || math.IsNaN(rho) {
			return SchedulerSpec{}, fmt.Errorf("sweep: sticky rho %v out of [0, 1)", rho)
		}
		return SchedulerSpec{Kind: SchedSticky, Rho: rho}, nil
	case SchedLottery:
		if !hasArg {
			return SchedulerSpec{Kind: SchedLottery}, nil
		}
		fields := strings.Split(arg, ",")
		tickets := make([]int, len(fields))
		for i, f := range fields {
			t, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return SchedulerSpec{}, fmt.Errorf("sweep: parse lottery ticket %q: %w", f, err)
			}
			if t < 1 {
				return SchedulerSpec{}, fmt.Errorf("sweep: lottery ticket %d must be positive", t)
			}
			tickets[i] = t
		}
		return SchedulerSpec{Kind: SchedLottery, Tickets: tickets}, nil
	case SchedWeighted:
		if !hasArg {
			return SchedulerSpec{Kind: SchedWeighted}, nil
		}
		weights, err := parseWeights(arg)
		if err != nil {
			return SchedulerSpec{}, err
		}
		return SchedulerSpec{Kind: SchedWeighted, Weights: weights}, nil
	case SchedPhased:
		if !hasArg || arg == "" {
			return SchedulerSpec{}, errors.New(`sweep: phased needs phases, e.g. "phased:3,1@50/1,3@50"`)
		}
		segs := strings.Split(arg, "/")
		phases := make([]PhaseSpec, len(segs))
		for i, seg := range segs {
			ws, stepsStr, ok := strings.Cut(seg, "@")
			if !ok {
				return SchedulerSpec{}, fmt.Errorf("sweep: phase %q needs the form <weights>@<steps>", seg)
			}
			weights, err := parseWeights(ws)
			if err != nil {
				return SchedulerSpec{}, fmt.Errorf("sweep: phase %d: %w", i, err)
			}
			steps, err := strconv.ParseUint(stepsStr, 10, 64)
			if err != nil {
				return SchedulerSpec{}, fmt.Errorf("sweep: parse phase %d length %q: %w", i, stepsStr, err)
			}
			if steps < 1 {
				return SchedulerSpec{}, fmt.Errorf("sweep: phase %d has zero length", i)
			}
			phases[i] = PhaseSpec{Weights: weights, Steps: steps}
		}
		return SchedulerSpec{Kind: SchedPhased, Phases: phases}, nil
	case SchedAdversary:
		if !hasArg {
			return SchedulerSpec{}, errors.New(`sweep: adversary needs a victim, e.g. "adversary:0"`)
		}
		victim, err := strconv.Atoi(arg)
		if err != nil {
			return SchedulerSpec{}, fmt.Errorf("sweep: parse adversary victim: %w", err)
		}
		return SchedulerSpec{Kind: SchedAdversary, Victim: victim}, nil
	default:
		return SchedulerSpec{}, fmt.Errorf("sweep: unknown scheduler %q", name)
	}
}

// parseWeights parses a comma-separated list of strictly positive
// finite floats.
func parseWeights(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	weights := make([]float64, len(fields))
	for i, f := range fields {
		w, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: parse weight %q: %w", f, err)
		}
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("sweep: weight %v must be strictly positive and finite", w)
		}
		weights[i] = w
	}
	return weights, nil
}
