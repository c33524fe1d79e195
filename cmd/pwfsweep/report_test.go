package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pwf/internal/api"
	"pwf/internal/obs"
)

// point is a one-point grid: one simulation of scu under uniform at
// n = 2, the shape of most tests below.
func point(extra ...string) []string {
	args := []string{"-algos", "scu", "-scheds", "uniform", "-n", "2", "-seeds", "1",
		"-progress=false"}
	return append(args, extra...)
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range strings.Split(algoNames, ", ") {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			var out, errOut bytes.Buffer
			args := []string{"-algos", algo, "-scheds", "uniform", "-n", "4", "-seeds", "1",
				"-steps", "20000", "-text", "-progress=false"}
			if err := run(args, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "algorithm="+algo+" ") ||
				!strings.Contains(out.String(), "completion rate") {
				t.Errorf("missing report:\n%s", out.String())
			}
		})
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, s := range []string{"uniform", "roundrobin", "sticky:0.5", "lottery"} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			var out, errOut bytes.Buffer
			args := []string{"-algos", "scu", "-scheds", s, "-n", "4", "-seeds", "1",
				"-steps", "20000", "-text", "-progress=false"}
			if err := run(args, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "sched="+s+" ") {
				t.Errorf("report does not name the scheduler:\n%s", out.String())
			}
		})
	}
}

func TestRunWithCrashes(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-algos", "scu", "-scheds", "roundrobin", "-n", "8", "-seeds", "1",
		"-crash", "4", "-steps", "20000", "-progress=false"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	results, err := api.ReadResults(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Job.Crash != 4 {
		t.Fatalf("want one result with crash 4, got %+v", results)
	}
	// The crashed processes are the four highest ids.
	if got := results[0].Starved; len(got) < 4 || got[len(got)-4] != 4 {
		t.Errorf("starved processes %v, want 4..7 among them", got)
	}
}

func TestRunSweepMultipleN(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2,4,8", "-seeds", "1",
		"-steps", "20000", "-text", "-progress=false"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"n=2", "n=4", "n=8"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONEmitsOneObjectPerJob(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-algos", "scu", "-scheds", "uniform", "-n", "2,4", "-seeds", "1",
		"-steps", "20000", "-exact", "-progress=false"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d JSON lines, want 2:\n%s", len(lines), out.String())
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
	for _, text := range []string{"-text=false", "-text"} {
		out := func(workers string) string {
			var out, errOut bytes.Buffer
			err := run([]string{
				"-algos", "scu,fetchinc", "-scheds", "uniform,lottery", "-n", "2,4,8",
				"-seeds", "2", "-steps", "20000", "-seed", "7", "-workers", workers,
				"-progress=false", text,
			}, &out, &errOut)
			if err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		if serial, parallel := out("1"), out("8"); serial != parallel {
			t.Errorf("%s: output differs between -workers 1 and 8:\n%s\n---\n%s",
				text, serial, parallel)
		}
	}
}

func TestRunWarmupFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(point("-steps", "20000", "-warmup", "0.25"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	results, err := api.ReadResults(&out)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Job.WarmupFraction; got != 0.25 {
		t.Errorf("warmup_fraction %v, want 0.25", got)
	}
}

// traceEvents decodes the binary trace at path.
func traceEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadBinaryEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
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
		var out, errOut bytes.Buffer
		args := point("-steps", strconv.Itoa(c.steps), "-warmup", c.warmup, "-trace", path)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		scheds := 0
		for _, e := range traceEvents(t, path) {
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

func TestRunTraceEmitsValidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.pwft")
	var out, errOut bytes.Buffer
	if err := run(point("-steps", "5000", "-trace", path), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var scheds, completes, jobStarts, jobEnds int
	for _, e := range traceEvents(t, path) {
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
		var out, errOut bytes.Buffer
		args := point("-steps", "5000", "-seed", "7", "-trace", path, "-trace-compress", comp)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[comp] = st.Size()
		events := traceEvents(t, path)
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
	var out, errOut bytes.Buffer
	// The trace format flag is gone: there is one format.
	retired := "-trace-" + "format"
	err := run(point("-steps", "100", retired, "xml"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+retired) {
		t.Errorf("%s xml: error %v, want an undefined flag", retired, err)
	}
	if err := run(point("-steps", "100", "-trace-compress", "zstd"), &out, &errOut); err == nil {
		t.Error("unknown -trace-compress accepted")
	}
}

// TestRunDebugAddrKeepsBatching checks that watching a sweep does not
// change how it runs: with -debug-addr and -metrics a batchable grid
// stays on the replica-batched path, every point is counted there, and
// the results are the bytes of the same run unwatched.
func TestRunDebugAddrKeepsBatching(t *testing.T) {
	grid := []string{"-algos", "scu,fetchinc", "-scheds", "uniform", "-n", "4", "-seeds", "4",
		"-steps", "2000", "-progress=false"}
	const points = 8
	var plain, plainErr bytes.Buffer
	if err := run(grid, &plain, &plainErr); err != nil {
		t.Fatal(err)
	}

	before := obs.Default.Counter("sweep_batch_jobs").Load()
	var out, errOut bytes.Buffer
	watched := append(append([]string{}, grid...), "-debug-addr", "127.0.0.1:0", "-metrics")
	if err := run(watched, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errOut.String(), "fell back to scalar") {
		t.Errorf("watched sweep left the batched path:\n%s", errOut.String())
	}
	if !bytes.Equal(out.Bytes(), plain.Bytes()) {
		t.Errorf("watched results differ from unwatched:\n%s\nvs\n%s", out.Bytes(), plain.Bytes())
	}
	// The snapshot follows the debug server's address line on stderr.
	_, snap, _ := strings.Cut(errOut.String(), "\n")
	var parsed obs.Snapshot
	if err := json.NewDecoder(strings.NewReader(snap)).Decode(&parsed); err != nil {
		t.Fatalf("metrics snapshot: %v\n%s", err, errOut.String())
	}
	if got := parsed.Counters["sweep_batch_jobs"] - before; got != points {
		t.Errorf("sweep_batch_jobs grew by %d, want %d (every point batched)", got, points)
	}
}

func TestRunMetricsSnapshot(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(point("-steps", "5000", "-exact", "-metrics"), &out, &errOut); err != nil {
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
	// The snapshot is the first JSON value on stderr; pwfsweep's
	// closing status line follows it.
	var parsed struct {
		Counters   map[string]uint64          `json:"counters"`
		Gauges     map[string]uint64          `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.NewDecoder(strings.NewReader(snap)).Decode(&parsed); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, snap)
	}
	if parsed.Counters["sim_sched_steps"] == 0 {
		t.Error("sim_sched_steps counter is zero")
	}
}

func TestRunDebugAddrServesMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(point("-steps", "2000", "-debug-addr", "127.0.0.1:0"), &out, &errOut); err != nil {
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
	var out, errOut bytes.Buffer
	args := point("-steps", "5000", "-cpuprofile", cpu, "-memprofile", mem)
	if err := run(args, &out, &errOut); err != nil {
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
