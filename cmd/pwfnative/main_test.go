package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwf/internal/obs"
)

func TestRunSchedule(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "schedule", "-workers", "2", "-ops", "2000"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 3", "Figure 4", "worker  0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// recordedSteps reads the step count that schedule mode reports. The
// recorder trims its order to the window in which every worker is
// active, so the count falls short of workers×ops whenever the
// workers' runs overlap, as they do on a loaded machine.
func recordedSteps(t *testing.T, out string, workers, ops int) int {
	t.Helper()
	var steps, w int
	if _, err := fmt.Sscanf(out, "recorded %d steps by %d workers", &steps, &w); err != nil {
		t.Fatalf("no step count in output: %v\n%s", err, out)
	}
	if w != workers || steps < 1 || steps > workers*ops {
		t.Fatalf("recorded %d steps by %d workers, want 1..%d steps by %d", steps, w, workers*ops, workers)
	}
	return steps
}

func TestRunScheduleTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.pwft")
	var buf bytes.Buffer
	args := []string{"-mode", "schedule", "-workers", "2", "-ops", "1000", "-trace", path}
	if err := run(args, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadBinaryEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := recordedSteps(t, buf.String(), 2, 1000); len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	for i, e := range events {
		if e.Kind != obs.KindSched {
			t.Fatalf("event %d: kind %v, want sched", i, e.Kind)
		}
		if e.Step != uint64(i)+1 {
			t.Fatalf("event %d: step %d, want %d", i, e.Step, i+1)
		}
		if e.PID < 0 || e.PID > 1 {
			t.Fatalf("event %d: pid %d out of range", i, e.PID)
		}
	}
}

// TestRunScheduleTraceBinary records the hardware schedule with each
// -trace-compress value and checks it decodes to the same shape as
// TestRunScheduleTrace's: all sched events with consecutive 1-based
// steps.
func TestRunScheduleTraceBinary(t *testing.T) {
	for _, comp := range []string{"none", "gzip"} {
		path := filepath.Join(t.TempDir(), "sched.pwft")
		var buf bytes.Buffer
		args := []string{"-mode", "schedule", "-workers", "2", "-ops", "1000",
			"-trace", path, "-trace-compress", comp}
		if err := run(args, &buf, &buf); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadBinaryEvents(f)
		f.Close()
		if err != nil {
			t.Fatalf("compress=%s: decode: %v", comp, err)
		}
		if want := recordedSteps(t, buf.String(), 2, 1000); len(events) != want {
			t.Fatalf("compress=%s: got %d events, want %d", comp, len(events), want)
		}
		for i, e := range events {
			if e.Kind != obs.KindSched || e.Step != uint64(i)+1 {
				t.Fatalf("compress=%s: event %d: %+v", comp, i, e)
			}
		}
	}
}

// TestRunRejectsBadTraceFormat checks that the trace format flag is
// gone (there is one format) and that an unknown compression fails.
func TestRunRejectsBadTraceFormat(t *testing.T) {
	retired := "-trace-" + "format"
	for _, c := range []struct {
		flag, value, wantMsg string
	}{
		{retired, "xml", "flag provided but not defined: " + retired},
		{"-trace-compress", "zstd", "unknown trace compression"},
	} {
		var buf bytes.Buffer
		args := []string{"-mode", "schedule", "-workers", "1", "-ops", "10",
			"-trace", filepath.Join(t.TempDir(), "x"), c.flag, c.value}
		if err := run(args, &buf, &buf); err == nil || !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("%s %s: error %v, want %q", c.flag, c.value, err, c.wantMsg)
		}
	}
}

func TestRunRateAllWorkloads(t *testing.T) {
	for _, algo := range []string{"counter", "add", "stack", "queue"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			var buf bytes.Buffer
			args := []string{"-mode", "rate", "-maxworkers", "2", "-ops", "2000", "-algo", algo}
			if err := run(args, &buf, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Figure 5") {
				t.Errorf("missing header:\n%s", buf.String())
			}
		})
	}
}

// Each worker count of the rate sweep gets its own OpStats, so the
// snapshot's op counters read workers×ops, not a sum over the sweep.
func TestRunRateMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-mode", "rate", "-maxworkers", "4", "-ops", "1000",
		"-algo", "counter", "-metrics"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(errOut.Bytes(), &snap); err != nil {
		t.Fatalf("metrics snapshot: %v\n%s", err, errOut.String())
	}
	for _, n := range []int{1, 2, 4} {
		prefix := fmt.Sprintf("native_counter_w%d", n)
		if got, want := snap.Counters[prefix+"_ops"], uint64(1000*n); got != want {
			t.Errorf("%s_ops = %d, want %d", prefix, got, want)
		}
		if _, ok := snap.Histograms[prefix+"_retries"]; !ok {
			t.Errorf("metrics snapshot missing %s_retries", prefix)
		}
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var buf bytes.Buffer
	args := []string{"-mode", "rate", "-maxworkers", "1", "-ops", "2000",
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"bad mode", []string{"-mode", "nope"}, `unknown mode "nope"`},
		{"bad algo", []string{"-mode", "rate", "-algo", "nope"}, `unknown workload "nope"`},
		{"zero workers", []string{"-mode", "schedule", "-workers", "0"}, "-workers must be at least 1"},
		{"negative workers", []string{"-mode", "schedule", "-workers", "-3"}, "-workers must be at least 1"},
		{"zero maxworkers", []string{"-mode", "rate", "-maxworkers", "0"}, "-maxworkers must be at least 1"},
		{"negative maxworkers", []string{"-mode", "rate", "-maxworkers", "-1"}, "-maxworkers must be at least 1"},
		{"zero ops", []string{"-mode", "rate", "-ops", "0"}, "-ops must be at least 1"},
		{"negative ops", []string{"-mode", "schedule", "-ops", "-5"}, "-ops must be at least 1"},
		{"retired backoff flag", []string{"-mode", "rate", "-backoff", "exp"}, "flag provided but not defined: -backoff"},
		{"retired sharded workload", []string{"-mode", "rate", "-algo", "sharded"}, `unknown workload "sharded"`},
		{"trace in rate mode", []string{"-mode", "rate", "-trace", "x.ndjson"}, "-trace applies only"},
		{"unknown flag", []string{"-badflag"}, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf, &buf)
			if err == nil {
				t.Fatalf("args %v: nil error", tc.args)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.wantMsg)
			}
		})
	}
}
