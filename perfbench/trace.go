package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// layerMetrics is every per-layer metric the traced run reports, with
// its unit. A layer a workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sched.draw_ns", "ns"},
	{"sched.share", "ratio"},
	{"machine.step_ns", "ns"},
	{"machine.steps", "count"},
	{"scu.completions_per_kstep", "1/kstep"},
	{"sweep.job_p50_ms", "ms"},
	{"sweep.job_p90_ms", "ms"},
	{"sweep.overhead_s", "s"},
	{"sweep.batch_jobs", "count"},
	{"sweep.batch_fallbacks", "count"},
	{"obs.events", "count"},
	{"obs.record_ns", "ns"},
	{"chains.build_s", "s"},
	{"markov.solve_s", "s"},
	{"chains.states", "count"},
	{"chains.cache_misses", "count"},
	{"chains.cache_hits", "count"},
	{"api.encode_us", "us"},
	{"api.bytes_per_result", "B"},
	{"api.decode_us", "us"},
	{"checkpoint.open_ms", "ms"},
	{"checkpoint.commit_us_p50", "us"},
	{"checkpoint.commit_us_p99", "us"},
	{"checkpoint.syncs", "count"},
	{"checkpoint.bytes", "B"},
	{"server.submit_ms_p50", "ms"},
	{"server.first_line_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.rejected", "count"},
	{"server.jobs_coalesced", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// trace collects what a traced round records: top-level spans (their
// sum over the round's wall is the coverage), the self time of each
// layer, and the per-layer metrics. Spans are kept in memory and
// summarized when the run ends.
type trace struct {
	roots   time.Duration // sum of the top-level spans
	self    map[string]time.Duration
	metrics map[string]metric

	// Data the traced grid round leaves for the replays.
	grid     []sweep.Job
	results  []sweep.Result
	runWall  time.Duration
	commits  *timedCheckpoint
	recorder *countingRecorder
	cache    *sweep.ChainCache
	reg      *obs.Registry
	failed   int // operations a replay found wrong
}

func newTrace() *trace {
	return &trace{self: map[string]time.Duration{}, metrics: map[string]metric{}}
}

// span times fn as one top-level span attributed to layer. On a nil
// trace, as in an untraced round, it only calls fn.
func (t *trace) span(layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	began := time.Now()
	err := fn()
	d := time.Since(began)
	t.roots += d
	t.self[layer] += d
	return err
}

func (t *trace) set(name string, v float64, unit string) { t.metrics[name] = metric{v, unit} }

// filled returns every per-layer metric, zero where unset.
func (t *trace) filled() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v := t.metrics[m.name]
		out[m.name] = metric{v.Value, m.unit}
	}
	return out
}

// printSelfTimes writes the layer breakdown of the traced wall.
func (t *trace) printSelfTimes(w io.Writer, wall time.Duration) {
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
	fmt.Fprintf(w, "perfbench: traced wall %.4f s; self time by layer:\n", wall.Seconds())
	for _, n := range names {
		d := t.self[n]
		fmt.Fprintf(w, "  %-12s %9.4f s  %5.1f%%\n", n, d.Seconds(), 100*d.Seconds()/wall.Seconds())
	}
}

// timedCheckpoint wraps a sweep.Checkpoint and times every Commit.
type timedCheckpoint struct {
	sweep.Checkpoint
	mu      sync.Mutex
	commits []time.Duration
}

func (c *timedCheckpoint) Commit(r sweep.Result) error {
	began := time.Now()
	err := c.Checkpoint.Commit(r)
	d := time.Since(began)
	c.mu.Lock()
	c.commits = append(c.commits, d)
	c.mu.Unlock()
	return err
}

func (c *timedCheckpoint) total() time.Duration {
	var sum time.Duration
	for _, d := range c.commits {
		sum += d
	}
	return sum
}

// countingRecorder counts the events passed to the recorder it wraps.
type countingRecorder struct {
	rec obs.Recorder
	n   atomic.Uint64
}

func (c *countingRecorder) Record(e obs.Event) {
	c.n.Add(1)
	c.rec.Record(e)
}

// durations converts to float64 in the given unit for quantile.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
