package pwf_test

import (
	"math"
	"testing"

	"pwf"
)

func TestRunWarmupFractionValidated(t *testing.T) {
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 4)
	cfg.Steps = 1000
	for _, f := range []float64{-0.1, 1, 1.5, math.NaN()} {
		cfg.WarmupFraction = f
		if _, err := pwf.Run(cfg); err == nil {
			t.Errorf("warmup fraction %v accepted", f)
		}
	}
	for _, f := range []float64{0, 0.1, 0.99} {
		cfg.WarmupFraction = f
		if _, err := pwf.Run(cfg); err != nil {
			t.Errorf("warmup fraction %v rejected: %v", f, err)
		}
	}
}

func TestRunWarmupChangesMeasurementWindow(t *testing.T) {
	// Different warmup fractions shift the measurement window along
	// the same schedule stream, so the measured completions differ.
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 4)
	cfg.Steps = 20000
	cfg.WarmupFraction = 0
	a, err := pwf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupFraction = 0.5
	b, err := pwf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("warmup fraction had no effect on the measurement")
	}
}

func TestRunWithSchedulerOption(t *testing.T) {
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 8)
	cfg.Steps = 50000
	uniform, err := pwf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withSched := func(s pwf.SchedulerSpec) pwf.RunConfig {
		c := cfg
		c.Scheduler = s
		return c
	}
	sticky, err := pwf.Run(withSched(pwf.StickySpec(0.9)))
	if err != nil {
		t.Fatal(err)
	}
	if uniform == sticky {
		t.Error("scheduler field had no effect")
	}
	if _, err := pwf.Run(withSched(pwf.RoundRobinSpec())); err != nil {
		t.Errorf("round-robin run failed: %v", err)
	}
	if _, err := pwf.Run(withSched(pwf.LotterySpec(nil))); err != nil {
		t.Errorf("lottery run failed: %v", err)
	}
	if _, err := pwf.Run(withSched(pwf.StickySpec(1.5))); err == nil {
		t.Error("invalid stickiness accepted")
	}
}

// The sweep-level settings take effect — the progress callback fires
// for every job under a bounded, family-batched pool — and a warmup
// set on each job changes the sweep's measurements.
func TestLiftedSweepOptions(t *testing.T) {
	jobs := []pwf.SweepJob{
		{Workload: pwf.SCUWorkload(0, 1), N: 3, Steps: 20000},
		{Workload: pwf.FetchIncWorkload(), N: 3, Steps: 20000},
	}
	progress := 0
	base, err := pwf.RunSweep(pwf.SweepConfig{
		Jobs: jobs, Seed: 42, Workers: 1, BatchFamilies: true,
		Progress: func(done, total int) { progress = done },
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress != len(jobs) {
		t.Errorf("progress callback reached %d of %d", progress, len(jobs))
	}
	warmJobs := append([]pwf.SweepJob(nil), jobs...)
	for i := range warmJobs {
		warmJobs[i].WarmupFraction = 0.5
	}
	warmed, err := pwf.RunSweep(pwf.SweepConfig{Jobs: warmJobs, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if base[0].Latencies == warmed[0].Latencies {
		t.Error("per-job warmup had no effect on the sweep")
	}
}

func TestRunSweepPublic(t *testing.T) {
	jobs := []pwf.SweepJob{
		{Workload: pwf.SCUWorkload(0, 1), N: 4, Steps: 20000,
			WarmupFraction: pwf.DefaultWarmupFraction, Exact: true},
		{Workload: pwf.FetchIncWorkload(), N: 4, Steps: 20000, Exact: true},
		{Workload: pwf.UnboundedWorkload(0), N: 2, Steps: 20000},
		{Workload: pwf.QueueWorkload(), N: 4, Steps: 20000},
	}
	results, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	// The exact values must agree with the memoized public accessors.
	wSCU, err := pwf.ExactSCUSystemLatency(4)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].ExactOK || results[0].Exact != wSCU {
		t.Errorf("sweep exact %v (ok=%v), accessor %v",
			results[0].Exact, results[0].ExactOK, wSCU)
	}
	wFI, err := pwf.ExactFetchIncLatency(4)
	if err != nil {
		t.Fatal(err)
	}
	if !results[1].ExactOK || results[1].Exact != wFI {
		t.Errorf("sweep exact %v (ok=%v), accessor %v",
			results[1].Exact, results[1].ExactOK, wFI)
	}

	// Re-running the sweep with the same master seed reproduces it.
	again, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 123, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Latencies != again[i].Latencies {
			t.Errorf("job %d not reproducible across worker counts", i)
		}
	}
}
