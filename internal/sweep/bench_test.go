package sweep

import (
	"fmt"
	"runtime"
	"testing"

	"pwf/internal/obs"
)

// scu16Grid is the acceptance-criterion grid: a 16-job SCU sweep.
func scu16Grid() []Job {
	var jobs []Job
	for _, n := range []int{2, 4, 8, 16} {
		for _, s := range []int{1, 2} {
			for _, q := range []int{0, 2} {
				jobs = append(jobs, Job{
					Workload:       Workload{Kind: SCU, Q: q, S: s},
					N:              n,
					Steps:          200000,
					WarmupFraction: DefaultWarmupFraction,
				})
			}
		}
	}
	return jobs
}

func benchSweep(b *testing.B, workers int) {
	jobs := scu16Grid()
	b.ReportMetric(float64(len(jobs)), "jobs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Jobs: jobs, Seed: 1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSCU16Serial is the serial baseline for the 16-job SCU
// grid; BenchmarkSweepSCU16Parallel must beat it on >= 4 cores.
func BenchmarkSweepSCU16Serial(b *testing.B) { benchSweep(b, 1) }

func BenchmarkSweepSCU16Parallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSweepSteps measures end-to-end simulated steps per second
// over the paper-scale process counts — the quantity the
// constant-time scheduler sampling layer targets: with O(1) draws the
// steps/sec column should be flat in n instead of collapsing as
// O(1/n). Uniform exercises the dense active set (with a crashed
// process so the crash-mode path is measured); lottery exercises the
// Fenwick tree. The scalar variant runs one replica per RunJob call;
// the batch variant runs replicaBenchWidth same-shape replicas
// through the struct-of-arrays core and must come out at least 2x
// faster per step at n=1024. The uniform/metrics pair repeats the
// uniform n=1024 shape counted into an *obs.Metrics, on both step
// loops. The n=1024 rows are the ones CI's paired benchmark gate
// (.github/benchgate.sh) compares against the base commit.
func BenchmarkSweepSteps(b *testing.B) {
	schedulers := []SchedulerSpec{{Kind: SchedUniform}, {Kind: SchedLottery}}
	for _, spec := range schedulers {
		for _, n := range []int{16, 256, 1024, 4096} {
			benchSweepStepsPair(b, fmt.Sprintf("%s/n=%d", spec.Kind, n), Workload{Kind: SCU, S: 1}, n, spec, false)
		}
	}
	benchSweepStepsPair(b, "uniform/metrics/n=1024", Workload{Kind: SCU, S: 1}, 1024, SchedulerSpec{Kind: SchedUniform}, true)
	// The pointer-based workloads with replica-batched SoA forms, at
	// the headline process count.
	for _, spec := range schedulers {
		for _, wk := range []Workload{
			{Kind: Stack}, {Kind: Queue}, {Kind: RCU}, {Kind: Unbounded}, {Kind: LFUniversal},
		} {
			benchSweepStepsPair(b, fmt.Sprintf("%s/%s/n=1024", spec.Kind, wk.Kind), wk, 1024, spec, false)
		}
	}
}

// benchSweepStepsPair runs the scalar and the batch variant of one job
// shape as the sub-benchmarks name/scalar and name/batch; with metrics,
// both count into an *obs.Metrics, as the job's and as the sweep's
// recorder.
func benchSweepStepsPair(b *testing.B, name string, wk Workload, n int, spec SchedulerSpec, metrics bool) {
	job := Job{Workload: wk, N: n, Sched: spec, Steps: benchStepsPerJob, Crash: 1}
	var m *obs.Metrics
	if metrics {
		m = obs.NewMetrics(obs.NewRegistry())
		job.Recorder = m
	}
	b.Run(name+"/scalar", func(b *testing.B) { benchSweepStepsScalar(b, job) })
	job.Recorder = nil
	b.Run(name+"/batch", func(b *testing.B) { benchSweepStepsBatch(b, job, m) })
}

const (
	benchStepsPerJob = 100000
	// replicaBenchWidth matches the width the serving layer uses, so
	// the batch rows describe production batches.
	replicaBenchWidth = 16
)

func benchSweepStepsScalar(b *testing.B, job Job) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunJob(job, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSteps(b, float64(b.N)*benchStepsPerJob)
}

func benchSweepStepsBatch(b *testing.B, job Job, m *obs.Metrics) {
	job.Replicas = replicaBenchWidth
	cfg := Config{
		Jobs:         []Job{job},
		Seed:         1,
		Workers:      1,
		ReplicaBatch: replicaBenchWidth,
	}
	if m != nil {
		cfg.Recorder = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSteps(b, float64(b.N)*benchStepsPerJob*replicaBenchWidth)
}

func reportSteps(b *testing.B, totalSteps float64) {
	b.ReportMetric(totalSteps/b.Elapsed().Seconds(), "steps/sec")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/totalSteps, "ns/step")
}
