package main

import (
	"fmt"
	"sort"
	"time"

	"pwf/internal/chains"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/sweep"
)

// replaySched re-draws every point's schedule alone — same scheduler
// spec, same derived seed, same number of draws — and returns the
// time it took and the number of draws. With batched set, points are
// grouped the way the sweep engine groups them (same shape, adjacent
// after family ordering, up to replicaBatch wide) and drawn through
// the batch drawers; otherwise each point draws through its scalar
// scheduler.
func replaySched(results []sweep.Result, batched bool) (time.Duration, uint64, error) {
	var total time.Duration
	var draws uint64
	for _, grp := range replayGroups(results, batched) {
		job := results[grp[0]].Job
		n := pointSteps(job)
		if len(grp) == 1 {
			s, err := scalarScheduler(job.Sched, job.N, results[grp[0]].Seed)
			if err != nil {
				return 0, 0, err
			}
			began := time.Now()
			for d := uint64(0); d < n; d++ {
				if _, err := s.Next(); err != nil {
					return 0, 0, err
				}
			}
			total += time.Since(began)
			draws += n
			continue
		}
		seeds := make([]uint64, len(grp))
		for r, i := range grp {
			seeds[r] = results[i].Seed
		}
		b, err := batchDrawer(job.Sched, job.N, seeds)
		if err != nil {
			return 0, 0, err
		}
		pids := make([]int32, len(grp))
		began := time.Now()
		for d := uint64(0); d < n; d++ {
			if err := b.NextBatch(pids); err != nil {
				return 0, 0, err
			}
		}
		total += time.Since(began)
		draws += n * uint64(len(grp))
	}
	return total, draws, nil
}

// replayGroups mirrors the sweep engine's dispatch grouping.
func replayGroups(results []sweep.Result, batched bool) [][]int {
	keys := make([]string, len(results))
	order := make([]int, len(results))
	for i, res := range results {
		j := res.Job
		keys[i] = fmt.Sprintf("%s|q%d|s%d|w%d|p%d|n%d|c%d|x%t|%s|t%d|f%g",
			j.Workload.Kind, j.Workload.Q, j.Workload.S, j.Workload.WaitFactor,
			j.Workload.PoolSize, j.N, j.Crash, j.Exact, j.Sched, j.Steps, j.WarmupFraction)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var groups [][]int
	for start := 0; start < len(order); {
		end := start + 1
		if batched && hasBatchForm(results[order[start]].Job.Workload.Kind) {
			for end < len(order) && end-start < replicaBatch && keys[order[end]] == keys[order[start]] {
				end++
			}
		}
		groups = append(groups, order[start:end])
		start = end
	}
	return groups
}

func hasBatchForm(k sweep.WorkloadKind) bool {
	for _, b := range batchableKinds {
		if b.w.Kind == k {
			return true
		}
	}
	return false
}

// unitTickets gives every process one lottery ticket, as the sweep
// engine does for a lottery spec without tickets.
func unitTickets(n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = 1
	}
	return t
}

// scalarScheduler builds the scheduler the sweep engine builds for a
// point, for the scheduler kinds the benchmark's grids use.
func scalarScheduler(s sweep.SchedulerSpec, n int, seed uint64) (sched.Scheduler, error) {
	switch s.Kind {
	case "", sweep.SchedUniform:
		return sched.NewUniform(n, rng.New(seed))
	case sweep.SchedSticky:
		return sched.NewSticky(n, s.Rho, rng.New(seed))
	case sweep.SchedLottery:
		return sched.NewLottery(unitTickets(n), rng.New(seed))
	}
	return nil, fmt.Errorf("no replay for scheduler %s", s)
}

// batchDrawer is scalarScheduler's batched counterpart.
func batchDrawer(s sweep.SchedulerSpec, n int, seeds []uint64) (sched.BatchDrawer, error) {
	switch s.Kind {
	case "", sweep.SchedUniform:
		return sched.NewUniformBatch(n, seeds)
	case sweep.SchedSticky:
		return sched.NewStickyBatch(n, s.Rho, seeds)
	case sweep.SchedLottery:
		return sched.NewLotteryBatch(unitTickets(n), seeds)
	}
	return nil, fmt.Errorf("no replay for scheduler %s", s)
}

// replayChains builds and solves, once each, the exact chain of every
// distinct exact point, timing construction and the stationary solve
// apart. Intractable chains fail fast in construction, as in the
// sweep, and count only their construction time.
func replayChains(jobs []sweep.Job) (build, solve time.Duration, states int, err error) {
	seen := map[string]bool{}
	for _, j := range jobs {
		w := j.Workload
		key := fmt.Sprintf("%s/%d/%d/%d", w.Kind, w.Q, w.S, j.N)
		if !j.Exact || seen[key] {
			continue
		}
		seen[key] = true
		began := time.Now()
		a, cerr := exactChain(w, j.N)
		build += time.Since(began)
		if cerr != nil {
			continue
		}
		states += a.Chain.N()
		began = time.Now()
		if _, err := a.Stationary(); err != nil {
			return 0, 0, 0, err
		}
		solve += time.Since(began)
	}
	return build, solve, states, nil
}

// exactChain constructs the chain the sweep engine's chain cache
// builds for an exact point.
func exactChain(w sweep.Workload, n int) (*chains.Analysis, error) {
	switch w.Kind {
	case sweep.SCU:
		if w.Q == 0 && w.S == 1 {
			a, _, err := chains.SCUSystem(n)
			return a, err
		}
		return chains.SCUSystemQS(n, w.Q, w.S)
	case sweep.FetchInc:
		return chains.FetchIncGlobal(n)
	case sweep.Parallel:
		a, _, err := chains.ParallelSystem(n, w.Q)
		return a, err
	}
	return nil, fmt.Errorf("no exact chain for %s", w.Kind)
}
