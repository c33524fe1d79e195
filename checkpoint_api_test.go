package pwf_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"pwf"
)

func checkpointJobs() []pwf.SweepJob {
	jobs := make([]pwf.SweepJob, 8)
	for i := range jobs {
		jobs[i] = pwf.SweepJob{Workload: pwf.FetchIncWorkload(), N: 3, Steps: 30000}
	}
	return jobs
}

func zeroElapsed(rs []pwf.SweepResult) []pwf.SweepResult {
	out := make([]pwf.SweepResult, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// The public checkpoint surface end to end: cancel a checkpointed
// sweep partway, reopen the log, resume, and reproduce the
// uninterrupted run exactly.
func TestWithCheckpointResumesCanceledSweep(t *testing.T) {
	jobs := checkpointJobs()
	cfg := pwf.SweepConfig{Jobs: jobs, Seed: 5}
	full, err := pwf.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "grid.ckpt")
	cp, err := pwf.OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	partial := cfg
	partial.Context = ctx
	partial.Workers = 1
	partial.OnResult = func(pwf.SweepResult) {
		seen++
		if seen == 3 {
			cancel()
		}
	}
	partial.Checkpoint = cp
	_, err = pwf.RunSweep(partial)
	if !errors.Is(err, pwf.ErrSweepCanceled) {
		t.Fatalf("expected ErrSweepCanceled, got %v", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := pwf.OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Restored() == 0 || re.Restored() == len(jobs) {
		t.Fatalf("reopened checkpoint restored %d of %d points; want a strict partial",
			re.Restored(), len(jobs))
	}
	resume := cfg
	resume.Checkpoint = re
	resumed, err := pwf.RunSweep(resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroElapsed(full), zeroElapsed(resumed)) {
		t.Error("resumed sweep differs from uninterrupted run")
	}
}

// A checkpoint opened against the wrong grid is refused loudly.
func TestOpenCheckpointRejectsWrongGrid(t *testing.T) {
	cfg := pwf.SweepConfig{Jobs: checkpointJobs(), Seed: 5}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	cp, err := pwf.OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()

	other := cfg
	other.Seed = 6
	if _, err := pwf.OpenCheckpoint(path, other); !errors.Is(err, pwf.ErrCheckpointMismatch) {
		t.Errorf("wrong seed: got %v, want ErrCheckpointMismatch", err)
	}
}
