package machine

import (
	"fmt"
	"math"
)

// gapMean is the running mean of inter-completion gaps: the mean half
// of Welford's update, the only part any estimator reads. Its mean is
// bit-identical to a Welford summary's over the same gaps.
type gapMean struct {
	n    int
	mean float64
}

// add incorporates one gap.
func (g *gapMean) add(x float64) {
	g.n++
	g.mean += (x - g.mean) / float64(g.n)
}

// indCell is the per-process metric state, packed into 40 bytes (the
// gap mean + three words) so recording a completion touches one cell
// instead of one entry per field array. lastComp doubles as the primed
// flag: steps are 1-based at completion time, so lastComp == 0 means
// no completion has been recorded in the current metrics window.
type indCell struct {
	gaps        gapMean
	lastComp    uint64
	maxGap      uint64
	completions uint64
}

// Window is one replica's latency metrics: the system and individual
// inter-completion gap means, the completion counts, and the
// window start that ResetMetrics moves past the warmup. Sim embeds
// one; BatchSim holds one per replica (see BatchSim.Replica). A window
// never counts steps itself: it reads its simulator's step clock, so
// the step loops pay nothing for it between completions.
type Window struct {
	clock *uint64 // the owning simulator's step count

	sysGaps     gapMean
	lastSysComp uint64 // 0: no completion yet in this window
	totalComp   uint64

	windowStart     uint64
	windowCompStart uint64

	ind []indCell // indexed by pid
}

// record accounts one completion by pid at step now (1-based). The
// accumulator updates are the whole per-completion cost of metrics;
// their order is fixed, so every simulator that records the same
// completions produces bit-identical statistics.
func (w *Window) record(pid int, now uint64) {
	c := &w.ind[pid]
	c.completions++
	w.totalComp++

	if w.lastSysComp != 0 {
		w.sysGaps.add(float64(now - w.lastSysComp))
	}
	w.lastSysComp = now

	if c.lastComp != 0 {
		gap := now - c.lastComp
		c.gaps.add(float64(gap))
		if gap > c.maxGap {
			c.maxGap = gap
		}
	}
	c.lastComp = now
}

// ResetMetrics discards the statistics gathered so far (warmup) while
// keeping the simulation state. Subsequent latency estimates describe
// only the post-reset window, approximating the stationary regime.
// Completion counts are cumulative and survive the reset.
func (w *Window) ResetMetrics() {
	w.sysGaps = gapMean{}
	w.lastSysComp = 0
	for i := range w.ind {
		w.ind[i].gaps = gapMean{}
		w.ind[i].lastComp = 0
		w.ind[i].maxGap = 0
	}
	w.windowStart = *w.clock
	w.windowCompStart = w.totalComp
}

// Completions returns a copy of the per-process completion counts.
func (w *Window) Completions() []uint64 {
	out := make([]uint64, len(w.ind))
	for pid := range w.ind {
		out[pid] = w.ind[pid].completions
	}
	return out
}

// TotalCompletions returns the total number of completed invocations
// since construction (warmup included).
func (w *Window) TotalCompletions() uint64 { return w.totalComp }

// SystemLatency returns the mean number of system steps between
// consecutive completions (gap estimator), an error if fewer than two
// completions were observed in the metrics window.
func (w *Window) SystemLatency() (float64, error) {
	if w.sysGaps.n == 0 {
		return 0, ErrNoCompletions
	}
	return w.sysGaps.mean, nil
}

// SystemLatencyRatio returns steps/completions over the metrics
// window (ratio estimator).
func (w *Window) SystemLatencyRatio() (float64, error) {
	comps := w.totalComp - w.windowCompStart
	if comps == 0 {
		return 0, ErrNoCompletions
	}
	return float64(*w.clock-w.windowStart) / float64(comps), nil
}

// IndividualLatency returns the mean number of system steps between
// consecutive completions by process pid (gap estimator).
func (w *Window) IndividualLatency(pid int) (float64, error) {
	if pid < 0 || pid >= len(w.ind) {
		return 0, fmt.Errorf("machine: pid %d out of range", pid)
	}
	if w.ind[pid].gaps.n == 0 {
		return 0, fmt.Errorf("%w: process %d", ErrNoCompletions, pid)
	}
	return w.ind[pid].gaps.mean, nil
}

// MeanIndividualLatency averages the individual latency across all
// processes that completed at least two invocations; it returns an
// error if no process did.
func (w *Window) MeanIndividualLatency() (float64, error) {
	var sum float64
	count := 0
	for pid := range w.ind {
		if w.ind[pid].gaps.n == 0 {
			continue
		}
		sum += w.ind[pid].gaps.mean
		count++
	}
	if count == 0 {
		return 0, ErrNoCompletions
	}
	return sum / float64(count), nil
}

// MaxIndividualGap returns the largest observed inter-completion gap
// for pid (in system steps) within the metrics window; used as the
// starvation witness in E9.
func (w *Window) MaxIndividualGap(pid int) (uint64, error) {
	if pid < 0 || pid >= len(w.ind) {
		return 0, fmt.Errorf("machine: pid %d out of range", pid)
	}
	return w.ind[pid].maxGap, nil
}

// CompletionRate returns completions per system step over the metrics
// window — the quantity plotted in Figure 5 (the inverse of system
// latency).
func (w *Window) CompletionRate() float64 {
	steps := *w.clock - w.windowStart
	if steps == 0 {
		return 0
	}
	return float64(w.totalComp-w.windowCompStart) / float64(steps)
}

// StarvedProcesses returns the ids of processes with zero completions
// so far; with enough steps under a stochastic scheduler this should
// be empty for bounded lock-free algorithms (Theorem 3), and non-empty
// for Algorithm 1 (Lemma 2).
func (w *Window) StarvedProcesses() []int {
	var out []int
	for pid := range w.ind {
		if w.ind[pid].completions == 0 {
			out = append(out, pid)
		}
	}
	return out
}

// FairnessIndex returns Jain's fairness index of the per-process
// completion counts: (Σx)² / (n·Σx²), which is 1 for perfectly equal
// progress and 1/n when one process monopolises completions.
func (w *Window) FairnessIndex() float64 {
	var sum, sumSq float64
	for pid := range w.ind {
		x := float64(w.ind[pid].completions)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	n := float64(len(w.ind))
	return sum * sum / (n * sumSq)
}
