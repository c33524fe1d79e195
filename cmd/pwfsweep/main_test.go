package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwf/internal/api"
)

func TestBuildJobsExpandsAllAxes(t *testing.T) {
	grid, err := buildGrid("scu,fetchinc", "uniform,sticky:0.5", "2,4", 3, 1,
		api.Job{Steps: 1000, WarmupFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 3; len(grid.Jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(grid.Jobs), want)
	}
	// Labels are unique and carry every axis.
	seen := map[string]bool{}
	for _, j := range grid.Jobs {
		if seen[j.Label] {
			t.Errorf("duplicate label %q", j.Label)
		}
		seen[j.Label] = true
		if j.Steps != 1000 || j.WarmupFraction != 0.1 {
			t.Errorf("job %q: steps %d warmup %v", j.Label, j.Steps, j.WarmupFraction)
		}
	}
	if !seen["scu/sticky:0.5/n4/r2"] {
		t.Error("expected label scu/sticky:0.5/n4/r2 missing")
	}
}

func TestBuildJobsRejectsBadAxes(t *testing.T) {
	cases := [][3]string{
		{"nosuch", "uniform", "2"},
		{"scu", "sticky", "2"}, // sticky needs a rho
		{"scu", "uniform", "zero"},
		{"scu", "uniform", "0"}, // parses, fails validation
	}
	for _, c := range cases {
		if _, err := buildGrid(c[0], c[1], c[2], 1, 1, api.Job{Steps: 1000, WarmupFraction: 0.1}); err == nil {
			t.Errorf("buildGrid(%q, %q, %q) accepted bad input", c[0], c[1], c[2])
		}
	}
}

// Every -algos name yields a valid job whose workload encodes as its
// kind's canonical constructor does: parameters only where the kind
// reads them, so no job carries a stray "s".
func TestWorkloadTableIsCanonical(t *testing.T) {
	want := map[string]string{
		"scu":      `{"kind":"scu","s":1}`,
		"parallel": `{"kind":"parallel","q":1}`,
	}
	names := strings.Split(algoNames, ", ")
	if len(names) != 11 || len(workloadByName) != len(names) {
		t.Fatalf("%d names listed, %d in the table, want 11 each", len(names), len(workloadByName))
	}
	for _, name := range names {
		grid, err := buildGrid(name, "uniform", "4", 1, 1, api.Job{Steps: 100})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got, err := json.Marshal(grid.Jobs[0].Workload)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[name]
		if !ok {
			w = `{"kind":"` + name + `"}`
		}
		if string(got) != w {
			t.Errorf("%s encodes as %s, want %s", name, got, w)
		}
	}
}

// Bad flags fail before any point runs (no checkpoint is created), and
// the error names the flag or the job that is wrong.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"zero seeds", []string{"-seeds", "0"}, "no jobs"},
		{"negative workers", []string{"-workers", "-2"}, "-workers must be non-negative"},
		{"resume without checkpoint", []string{"-checkpoint", "", "-resume"}, "-resume needs -checkpoint"},
		{"bad algo", []string{"-algos", "nosuch"}, "unknown algorithm"},
		{"bad sched", []string{"-scheds", "nope"}, "nope"},
		{"bad sticky rho", []string{"-scheds", "sticky:abc"}, "sticky"},
		{"sticky rho out of range", []string{"-scheds", "sticky:1.5"}, "sticky rho 1.5"},
		{"unknown flag", []string{"-bogusflag"}, "bogusflag"},
		{"zero steps", []string{"-steps", "0"}, "job 0"},
		{"warmup one", []string{"-warmup", "1"}, "job 0"},
		{"negative warmup", []string{"-warmup", "-0.1"}, "job 0"},
		{"warmup as a step count", []string{"-warmup", "5000"}, "job 0"},
		{"warmup NaN", []string{"-warmup", "NaN"}, "job 0"},
		{"zero n", []string{"-n", "0"}, "job 0"},
		{"negative n", []string{"-n", "-4"}, "job 0"},
		{"bad n in sweep list", []string{"-n", "2,0,8"}, "job 1"},
		{"empty n in sweep list", []string{"-n", "4,,8"}, "-n"},
		{"unparseable n", []string{"-n", "2,x"}, "-n"},
		{"crash more than n", []string{"-scheds", "roundrobin", "-n", "4,8", "-crash", "4"}, "job 0"},
		{"negative crash", []string{"-crash", "-1"}, "job 0"},
		{"crash under adversary", []string{"-scheds", "adversary:0", "-n", "4", "-crash", "1"}, "job 0"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "grid.ckpt")
			args := append([]string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2",
				"-seeds", "1", "-steps", "100", "-progress=false", "-checkpoint", ckpt}, tc.args...)
			var out, errOut bytes.Buffer
			err := run(args, &out, &errOut)
			if err == nil {
				t.Fatalf("args %v: nil error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.wantMsg)
			}
			if _, serr := os.Stat(ckpt); !os.IsNotExist(serr) {
				t.Errorf("args %v: a checkpoint was opened before the error (stat: %v)", tc.args, serr)
			}
		})
	}
}

func TestRunEmitsCanonicalResultsInInputOrder(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2,3",
		"-seeds", "2", "-steps", "20000", "-progress=false"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	results, err := api.ReadResults(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d; output must be input order", i, r.Index)
		}
	}
}

// An existing checkpoint is refused without -resume, and a resumed
// checkpoint whose grid mismatches the requested grid is
// rejected loudly instead of mixing results.
func TestRunCheckpointResumePolicy(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "grid.ckpt")
	base := []string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2",
		"-seeds", "2", "-steps", "10000", "-progress=false", "-checkpoint", ckpt}

	var out, errOut bytes.Buffer
	if err := run(base, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	// Same grid again, no -resume: refused.
	err := run(base, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Errorf("rerun without -resume: got %v, want an error naming -resume", err)
	}

	// Same grid with -resume: fine, everything restored.
	out.Reset()
	if err := run(append(base, "-resume"), &out, &errOut); err != nil {
		t.Fatal(err)
	}

	// Different grid (other master seed) with -resume: loud mismatch.
	err = run(append(base, "-resume", "-seed", "99"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "grid mismatch") {
		t.Errorf("mismatched resume: got %v, want a grid-mismatch error", err)
	}
}

// An invalid grid is refused before its checkpoint file exists, so
// the corrected rerun starts clean instead of tripping over a
// header-only file that binds the bad grid.
func TestRunInvalidGridLeavesNoCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "grid.ckpt")
	args := []string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2",
		"-seeds", "2", "-progress=false", "-checkpoint", ckpt}

	var out, errOut bytes.Buffer
	err := run(append(args, "-steps", "0"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "Steps") {
		t.Fatalf("-steps 0: got %v, want a Steps validation error", err)
	}
	if _, serr := os.Stat(ckpt); !os.IsNotExist(serr) {
		t.Fatalf("refused grid left %s behind (stat err: %v)", ckpt, serr)
	}
	if err := run(append(args, "-steps", "10000"), &out, &errOut); err != nil {
		t.Fatalf("corrected rerun: %v", err)
	}
}

// Resuming a completed checkpoint recomputes nothing and reproduces
// the original bytes.
func TestRunResumeReproducesBytes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-algos", "fetchinc,scu", "-scheds", "uniform", "-n", "2,3",
		"-seeds", "2", "-steps", "20000", "-progress=false"}

	var plain, errOut bytes.Buffer
	if err := run(args, &plain, &errOut); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "grid.ckpt")
	var first bytes.Buffer
	if err := run(append(args, "-checkpoint", ckpt), &first, &errOut); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run(append(args, "-checkpoint", ckpt, "-resume"), &resumed, &errOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), first.Bytes()) {
		t.Error("checkpointed run differs from plain run")
	}
	if !bytes.Equal(plain.Bytes(), resumed.Bytes()) {
		t.Error("fully restored run differs from plain run")
	}
	if !strings.Contains(errOut.String(), "resuming") {
		t.Error("resume did not announce the restored count")
	}
}
