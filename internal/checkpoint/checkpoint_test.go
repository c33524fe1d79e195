package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pwf/internal/api"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

func testConfig() sweep.Config {
	return sweep.Config{
		Jobs: []sweep.Job{
			{Workload: sweep.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 20000},
			{Workload: sweep.Workload{Kind: sweep.SCU, S: 1}, N: 2, Steps: 20000},
			{Workload: sweep.Workload{Kind: sweep.FetchInc}, N: 4, Steps: 20000},
			{Workload: sweep.Workload{Kind: sweep.SCU, S: 1}, N: 3, Steps: 20000,
				Sched: sweep.SchedulerSpec{Kind: sweep.SchedSticky, Rho: 0.5}},
		},
		Seed: 7,
	}
}

func stripElapsed(rs []sweep.Result) []sweep.Result {
	out := make([]sweep.Result, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// End to end: run with a checkpoint, reopen, confirm every point
// restores and a resumed sweep is byte-identical in canonical form.
func TestLogRoundTripAndResume(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Restored() != 0 {
		t.Fatalf("fresh checkpoint restored %d points", l.Restored())
	}
	runCfg := cfg
	runCfg.Checkpoint = l
	full, err := sweep.Run(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Restored() != len(full) {
		t.Fatalf("reopened checkpoint restored %d of %d points", re.Restored(), len(full))
	}
	reCfg := cfg
	reCfg.Checkpoint = re
	resumed, err := sweep.Run(reCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(full), stripElapsed(resumed)) {
		t.Error("resumed results differ from the original run")
	}
	// Canonical re-encoding of restored results matches the original
	// bytes exactly — the property streaming consumers rely on.
	for i := range full {
		want, _ := api.MarshalResult(api.ResultFromSweep(full[i]))
		got, _ := api.MarshalResult(api.ResultFromSweep(resumed[i]))
		if string(want) != string(got) {
			t.Errorf("point %d: canonical bytes differ after restore", i)
		}
	}
}

// A checkpoint written for one grid is rejected loudly for another:
// different jobs, different seed, different point count all fail with
// ErrGridMismatch.
func TestLogRejectsGridMismatch(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	otherSeed := cfg
	otherSeed.Seed = 8
	if _, err := Open(path, otherSeed, Options{}); !errors.Is(err, ErrGridMismatch) {
		t.Errorf("different seed: got %v, want ErrGridMismatch", err)
	}

	otherJobs := cfg
	otherJobs.Jobs = append([]sweep.Job{}, cfg.Jobs...)
	otherJobs.Jobs[0].Steps = 99999
	if _, err := Open(path, otherJobs, Options{}); !errors.Is(err, ErrGridMismatch) {
		t.Errorf("different jobs: got %v, want ErrGridMismatch", err)
	}

	fewer := cfg
	fewer.Jobs = cfg.Jobs[:2]
	if _, err := Open(path, fewer, Options{}); !errors.Is(err, ErrGridMismatch) {
		t.Errorf("different point count: got %v, want ErrGridMismatch", err)
	}
}

// The hash binds the expanded point layout: replica expansion and each
// job's warmup are part of a grid's identity.
func TestHashCoversExpansionAndOverrides(t *testing.T) {
	base := testConfig()
	h1, err := Hash(base)
	if err != nil {
		t.Fatal(err)
	}

	reps := base
	reps.Jobs = append([]sweep.Job{}, base.Jobs...)
	reps.Jobs[0].Replicas = 3
	h2, err := Hash(reps)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("replica expansion did not change the grid hash")
	}

	warm := base
	warm.Jobs = append([]sweep.Job{}, base.Jobs...)
	warm.Jobs[0].WarmupFraction = 0.5
	h3, err := Hash(warm)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Error("a changed job warmup did not change the grid hash")
	}

	// Execution-only knobs do not change identity.
	exec := base
	exec.Workers = 7
	exec.BatchFamilies = true
	exec.ReplicaBatch = 16
	h4, err := Hash(exec)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h4 {
		t.Error("execution knobs changed the grid hash")
	}
}

// Every byte-prefix of a finished checkpoint loads: complete lines
// restore, a torn tail is dropped, and appends after a torn-tail load
// produce a clean file. This is the SIGKILL-at-any-byte guarantee.
func TestLogLoadsEveryPrefix(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg
	runCfg.Checkpoint = l
	if _, err := sweep.Run(runCfg); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := strings.IndexByte(string(data), '\n') + 1

	for cut := headerLen; cut <= len(data); cut++ {
		trunc := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := Open(trunc, cfg, Options{})
		if err != nil {
			t.Fatalf("prefix of %d bytes failed to load: %v", cut, err)
		}
		wantComplete := 0
		for _, b := range data[headerLen:cut] {
			if b == '\n' {
				wantComplete++
			}
		}
		if lt.Restored() != wantComplete {
			t.Fatalf("prefix of %d bytes restored %d points, want %d", cut, lt.Restored(), wantComplete)
		}
		lt.Close()
		os.Remove(trunc)
	}
}

// A torn tail is truncated on load, so subsequent commits append onto
// a clean prefix and the file round-trips again.
func TestLogTruncatesTornTailBeforeAppend(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg
	runCfg.Checkpoint = l
	full, err := sweep.Run(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the file mid-final-line.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Restored() != len(full)-1 {
		t.Fatalf("torn checkpoint restored %d points, want %d", re.Restored(), len(full)-1)
	}
	reCfg := cfg
	reCfg.Checkpoint = re
	if _, err := sweep.Run(reCfg); err != nil {
		t.Fatal(err)
	}
	re.Close()

	// The healed file now loads completely.
	final, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Restored() != len(full) {
		t.Errorf("healed checkpoint restored %d of %d points", final.Restored(), len(full))
	}
}

// Interior corruption (a complete but undecodable line) is a loud
// error, not a silent partial restore.
func TestLogRejectsInteriorCorruption(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg
	runCfg.Checkpoint = l
	if _, err := sweep.Run(runCfg); err != nil {
		t.Fatal(err)
	}
	l.Close()

	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "{\"v\":1,\"index\":not json}\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("interior corruption: got %v, want ErrCorrupt", err)
	}
}

// The write/restore counters land in the registry.
func TestLogMetrics(t *testing.T) {
	cfg := testConfig()
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{Registry: reg, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg
	runCfg.Checkpoint = l
	if _, err := sweep.Run(runCfg); err != nil {
		t.Fatal(err)
	}
	l.Close()
	total := uint64(len(cfg.Jobs))
	if got := reg.Counter("checkpoint_points_written").Load(); got != total {
		t.Errorf("checkpoint_points_written = %d, want %d", got, total)
	}
	if got := reg.Counter("checkpoint_syncs").Load(); got < total {
		t.Errorf("checkpoint_syncs = %d, want >= %d with FlushEvery=-1", got, total)
	}

	re, err := Open(path, cfg, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if got := reg.Counter("checkpoint_points_restored").Load(); got != total {
		t.Errorf("checkpoint_points_restored = %d, want %d", got, total)
	}
}

// Load inspects header and records without binding to a grid.
func TestLoadInspectsFile(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg
	runCfg.Checkpoint = l
	if _, err := sweep.Run(runCfg); err != nil {
		t.Fatal(err)
	}
	l.Close()

	meta, results, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Points != len(cfg.Jobs) || meta.Seed != cfg.Seed || meta.Format != Format {
		t.Errorf("meta = %+v", meta)
	}
	if len(results) != len(cfg.Jobs) {
		t.Errorf("Load returned %d of %d records", len(results), len(cfg.Jobs))
	}
}

// Two canonical result lines and a checkpoint header for a two-point
// grid, as literals so the rejection table and the fuzz corpus share
// them.
const (
	testHeader = `{"v":1,"format":"pwf-checkpoint","grid_sha256":"00","seed":7,"points":2}` + "\n"
	testRecord = `{"v":1,"index":%d,"job":{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"uniform"},` +
		`"steps":2000,"warmup_fraction":0.1},"seed":7,"latencies":{"system":2.5,"individual":5,` +
		`"completion_rate":0.4,"fairness":1,"completions":800},"proc_completions":[400,400],"theta":0.5}` + "\n"
)

func record(index int) string { return fmt.Sprintf(testRecord, index) }

// notCheckpoints are files Load must refuse: the first three are a
// pwfsweep -out results file (no header: its first result line decodes
// as a header without a format), a record of a future schema version,
// and a record for a point outside the grid.
var notCheckpoints = []struct{ name, data string }{
	{"results file", record(0) + record(1)},
	{"record version 7", testHeader + strings.Replace(record(0), `"v":1`, `"v":7`, 1)},
	{"negative index", testHeader + record(-5)},
	{"index past points", testHeader + record(2)},
	{"duplicate index", testHeader + record(1) + record(1)},
	{"header version 2", strings.Replace(testHeader, `"v":1`, `"v":2`, 1) + record(0)},
}

func TestLoadRejectsNonCheckpoints(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := os.WriteFile(good, []byte(testHeader+record(1)+record(0)+`{"v":1,"ind`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := Load(good); err != nil || len(recs) != 2 || recs[0].Index != 1 {
		t.Fatalf("valid checkpoint with a torn tail: %d records, %v", len(recs), err)
	}
	for _, tc := range notCheckpoints {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_"))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if meta, recs, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load = %+v, %d records, %v; want ErrCorrupt", tc.name, meta, len(recs), err)
		}
	}
}

// FuzzCheckpointLoad feeds Load arbitrary file contents: it must never
// panic, and every file it accepts is a current-format checkpoint whose
// record indices lie in [0, Points) and appear once each.
func FuzzCheckpointLoad(f *testing.F) {
	f.Add([]byte(testHeader + record(0) + record(1)))
	f.Add([]byte(testHeader + record(1) + `{"v":1,"index":0,`))
	for _, tc := range notCheckpoints {
		f.Add([]byte(tc.data))
	}
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, recs, err := Load(path)
		if err != nil {
			return
		}
		if meta.V != Version || meta.Format != Format {
			t.Fatalf("accepted header %+v", meta)
		}
		seen := make(map[int]bool, len(recs))
		for _, r := range recs {
			if r.Index < 0 || r.Index >= meta.Points || seen[r.Index] {
				t.Fatalf("accepted record index %d (points %d, repeated %v)", r.Index, meta.Points, seen[r.Index])
			}
			seen[r.Index] = true
		}
	})
}
