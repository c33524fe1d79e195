package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pwf/internal/obs"
)

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{
		"scu", "parallel", "fetchinc", "unbounded", "stack", "queue",
		"rcu", "list", "hashset", "lfuniversal", "wfuniversal",
	} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			args := []string{"-algo", algo, "-n", "4", "-steps", "20000"}
			if algo == "parallel" {
				args = append(args, "-q", "3")
			}
			if err := run(args, &buf, &buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "completion rate") {
				t.Errorf("missing report:\n%s", out)
			}
		})
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, s := range []string{"uniform", "roundrobin", "sticky:0.5", "lottery"} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := run([]string{"-sched", s, "-n", "4", "-steps", "20000"}, &buf, &buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunWithCrashes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "8", "-crash", "4", "-steps", "20000"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepMultipleN(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-algo", "fetchinc", "-n", "2,4,8", "-steps", "20000"}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"n=2", "n=4", "n=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONEmitsOneObjectPerJob(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-algo", "scu", "-n", "2,4", "-steps", "20000", "-exact", "-json",
	}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d JSON lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		// Canonical api lines: versioned, and free of wall-clock fields
		// so the same grid and seed always reproduce the same bytes.
		if !strings.HasPrefix(line, `{"v":1,`) {
			t.Errorf("line %d is not a v1 envelope: %s", i, line)
		}
		if strings.Contains(line, "elapsed") {
			t.Errorf("line %d leaks wall-clock fields: %s", i, line)
		}
		var obj struct {
			Index int `json:"index"`
			Job   struct {
				N     int    `json:"n"`
				Steps uint64 `json:"steps"`
			} `json:"job"`
			Latencies struct {
				System      float64 `json:"system"`
				Completions uint64  `json:"completions"`
			} `json:"latencies"`
			Exact   float64 `json:"exact"`
			ExactOK bool    `json:"exact_ok"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if obj.Index != i {
			t.Errorf("line %d has index %d", i, obj.Index)
		}
		if obj.Job.Steps != 20000 || obj.Latencies.Completions == 0 ||
			obj.Latencies.System <= 0 {
			t.Errorf("line %d has implausible fields: %+v", i, obj)
		}
		if !obj.ExactOK || obj.Exact <= 0 {
			t.Errorf("line %d missing exact latency: %+v", i, obj)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	out := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{
			"-algo", "scu", "-n", "2,4,8", "-steps", "20000",
			"-seed", "7", "-workers", workers,
		}, &buf, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if serial, parallel := out("1"), out("8"); serial != parallel {
		t.Errorf("output differs between -workers 1 and 8:\n%s\n---\n%s",
			serial, parallel)
	}
}

func TestRunWarmupFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "4", "-steps", "20000", "-warmup", "0.25"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"1", "1.5", "-0.1", "NaN"} {
		if err := run([]string{"-n", "4", "-steps", "20000", "-warmup", bad}, &buf, &buf); err == nil {
			t.Errorf("-warmup %s accepted", bad)
		}
	}
}

// -warmup F runs F·steps warmup steps before the -steps window; the
// trace counts every step, warmup included.
func TestRunWarmupStepsExact(t *testing.T) {
	for _, c := range []struct {
		steps  int
		warmup string
		want   int
	}{
		{20000, "0.25", 25000}, {100, "0", 100}, {40, "0.1", 44},
	} {
		path := filepath.Join(t.TempDir(), "trace.pwft")
		var buf bytes.Buffer
		args := []string{"-n", "2", "-steps", strconv.Itoa(c.steps),
			"-warmup", c.warmup, "-trace", path}
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
			t.Fatal(err)
		}
		scheds := 0
		for _, e := range events {
			if e.Kind == obs.KindSched {
				scheds++
			}
		}
		if scheds != c.want {
			t.Errorf("-steps %d -warmup %s: %d sched events, want %d",
				c.steps, c.warmup, scheds, c.want)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"bad algo", []string{"-algo", "nope"}, ""},
		{"bad sched", []string{"-sched", "nope"}, ""},
		{"bad sticky rho", []string{"-sched", "sticky:abc"}, ""},
		{"sticky rho out of range", []string{"-sched", "sticky:1.5"}, ""},
		{"parallel without preamble", []string{"-algo", "parallel", "-q", "0"}, ""},
		{"crash more than n", []string{"-sched", "roundrobin", "-crash", "9", "-n", "8"}, ""},
		{"unknown flag", []string{"-bogusflag"}, ""},
		{"zero n", []string{"-n", "0"}, "must be at least 1"},
		{"negative n", []string{"-n", "-4"}, "must be at least 1"},
		{"bad n in sweep list", []string{"-n", "2,0,8"}, "must be at least 1"},
		{"unparseable n", []string{"-n", "2,x"}, "parse -n"},
		{"negative q", []string{"-q", "-1"}, "-q must be non-negative"},
		{"zero s", []string{"-algo", "scu", "-s", "0"}, "-s must be at least 1"},
		{"negative crash", []string{"-crash", "-1"}, "-crash must be non-negative"},
		{"negative workers", []string{"-workers", "-2"}, "-workers must be non-negative"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(append(tc.args, "-steps", "100"), &buf, &buf)
			if err == nil {
				t.Fatalf("args %v: nil error", tc.args)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.wantMsg)
			}
		})
	}
}

func TestRunRejectsZeroSteps(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "2", "-steps", "0"}, &buf, &buf)
	if err == nil {
		t.Fatal("zero -steps accepted")
	}
	if !strings.Contains(err.Error(), "-steps must be at least 1") {
		t.Errorf("error %q does not name -steps", err)
	}
}

func TestRunTraceEmitsValidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.pwft")
	var buf bytes.Buffer
	args := []string{"-algo", "scu", "-n", "2", "-steps", "5000", "-trace", path}
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
	var scheds, completes, jobStarts, jobEnds int
	for _, e := range events {
		switch e.Kind {
		case obs.KindSched:
			scheds++
		case obs.KindComplete:
			completes++
		case obs.KindJobStart:
			jobStarts++
		case obs.KindJobEnd:
			jobEnds++
		}
	}
	// The recorder observes the whole run: 5000 measured steps plus
	// the default 10% warmup.
	if scheds != 5500 {
		t.Errorf("got %d sched events, want 5500", scheds)
	}
	if completes == 0 {
		t.Error("no complete events recorded")
	}
	if jobStarts != 1 || jobEnds != 1 {
		t.Errorf("job lifecycle events: %d starts, %d ends, want 1 each",
			jobStarts, jobEnds)
	}
}

// TestRunTraceFormats runs the same seed once per -trace-compress value
// and requires both traces to decode to the identical event stream —
// the flag changes the file size, never the history.
func TestRunTraceFormats(t *testing.T) {
	dir := t.TempDir()
	var first []obs.Event
	sizes := map[string]int64{}
	for _, comp := range []string{"none", "gzip"} {
		path := filepath.Join(dir, "trace-"+comp)
		var buf bytes.Buffer
		args := []string{"-algo", "scu", "-n", "2", "-steps", "5000", "-seed", "7",
			"-trace", path, "-trace-compress", comp}
		if err := run(args, &buf, &buf); err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[comp] = st.Size()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadBinaryEvents(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", comp, err)
		}
		// job_end carries wall-clock time, the one nondeterministic
		// field across otherwise identical runs.
		for i := range events {
			if events[i].Kind == obs.KindJobEnd {
				events[i].ElapsedNS = 0
			}
		}
		if first == nil {
			first = events
			continue
		}
		if len(events) != len(first) {
			t.Fatalf("%s: %d events, uncompressed run had %d", comp, len(events), len(first))
		}
		for i := range events {
			if events[i] != first[i] {
				t.Fatalf("%s: event %d: %+v, uncompressed run had %+v", comp, i, events[i], first[i])
			}
		}
	}
	if sizes["gzip"] >= sizes["none"] {
		t.Errorf("gzip trace (%d B) not smaller than uncompressed binary (%d B)",
			sizes["gzip"], sizes["none"])
	}
}

func TestRunRejectsBadTraceFlags(t *testing.T) {
	var buf bytes.Buffer
	base := []string{"-algo", "scu", "-n", "2", "-steps", "100"}
	// The trace format flag is gone: there is one format.
	retired := "-trace-" + "format"
	err := run(append(base, retired, "xml"), &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+retired) {
		t.Errorf("%s xml: error %v, want an undefined flag", retired, err)
	}
	if err := run(append(base, "-trace-compress", "zstd"), &buf, &buf); err == nil {
		t.Error("unknown -trace-compress accepted")
	}
}

func TestRunDebugAddrTailsTrace(t *testing.T) {
	// The debug server tails the live trace; by the time run returns
	// the tailer is closed, so we cannot hit the endpoint here — that
	// path is covered by the obs package's HTTP tests. This test pins
	// the wiring: -debug-addr alone (no -trace) must not fail, and the
	// trace_tail metrics must register on the default registry.
	var out, errOut bytes.Buffer
	args := []string{"-algo", "scu", "-n", "2", "-steps", "2000",
		"-debug-addr", "127.0.0.1:0", "-metrics"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "trace_tail_evicted") {
		t.Errorf("metrics snapshot missing trace_tail_evicted:\n%s", errOut.String())
	}
}

func TestRunMetricsSnapshot(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-algo", "scu", "-n", "2", "-steps", "5000",
		"-exact", "-metrics"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	snap := errOut.String()
	for _, want := range []string{
		"chain_cache_hits", "chain_cache_misses",
		"sim_sched_steps", "sim_cas_attempts_per_op",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, snap)
		}
	}
	var parsed struct {
		Counters   map[string]uint64          `json:"counters"`
		Gauges     map[string]uint64          `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(errOut.Bytes(), &parsed); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if parsed.Counters["sim_sched_steps"] == 0 {
		t.Error("sim_sched_steps counter is zero")
	}
}

func TestRunDebugAddrServesMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-algo", "scu", "-n", "2", "-steps", "2000",
		"-debug-addr", "127.0.0.1:0"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "debug server listening on") {
		t.Errorf("missing bound-address line:\n%s", errOut.String())
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var buf bytes.Buffer
	args := []string{"-algo", "scu", "-n", "2", "-steps", "5000",
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
