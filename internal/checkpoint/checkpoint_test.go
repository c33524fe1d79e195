package checkpoint

import (
	"bytes"
	"errors"
	"flag"
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

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

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

// A checkpoint written for one grid is rejected loudly for another,
// and the error names what differs: the master seed, the point count,
// or the first point whose job differs.
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
	otherJobs := cfg
	otherJobs.Jobs = append([]sweep.Job{}, cfg.Jobs...)
	otherJobs.Jobs[2].Steps = 99999
	fewer := cfg
	fewer.Jobs = cfg.Jobs[:2]
	for _, tc := range []struct {
		name string
		cfg  sweep.Config
		says string
	}{
		{"different seed", otherSeed, "its master seed is 7, this sweep's is 8"},
		{"different jobs", otherJobs, `its point 2 is {"workload":{"kind":"fetchinc"},"n":4,"sched":{},"steps":20000,` +
			`"warmup_fraction":0}, this sweep's is {"workload":{"kind":"fetchinc"},"n":4,"sched":{},"steps":99999,` +
			`"warmup_fraction":0}`},
		{"different point count", fewer, "it has 4 points, this sweep has 2"},
	} {
		_, err := Open(path, tc.cfg, Options{})
		if !errors.Is(err, ErrGridMismatch) {
			t.Errorf("%s: got %v, want ErrGridMismatch", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.says) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %s and %q", tc.name, err, path, tc.says)
		}
	}
}

// The header binds the expanded point layout: replica expansion and
// each job's warmup are part of a grid's identity, execution knobs are
// not.
func TestOpenBindsPointLayout(t *testing.T) {
	base := testConfig()
	reps := base
	reps.Jobs = append([]sweep.Job{}, base.Jobs...)
	reps.Jobs[0].Replicas = 3
	warm := base
	warm.Jobs = append([]sweep.Job{}, base.Jobs...)
	warm.Jobs[0].WarmupFraction = 0.5
	exec := base
	exec.Workers = 7
	exec.BatchFamilies = true
	exec.ReplicaBatch = 16
	for _, tc := range []struct {
		name  string
		cfg   sweep.Config
		binds bool
	}{
		{"replica expansion", reps, true},
		{"job warmup", warm, true},
		{"execution knobs", exec, false},
	} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		l, err := Open(path, base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		re, err := Open(path, tc.cfg, Options{})
		if tc.binds && !errors.Is(err, ErrGridMismatch) {
			t.Errorf("%s: reopen got %v, want ErrGridMismatch", tc.name, err)
		}
		if !tc.binds && err != nil {
			t.Errorf("%s: reopen got %v, want the base checkpoint", tc.name, err)
		}
		if re != nil {
			re.Close()
		}
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
	if len(meta.Grid.Jobs) != len(cfg.Jobs) || meta.Grid.Seed != cfg.Seed || meta.Format != Format {
		t.Errorf("meta = %+v", meta)
	}
	if len(results) != len(cfg.Jobs) {
		t.Errorf("Load returned %d of %d records", len(results), len(cfg.Jobs))
	}
}

// Two canonical result lines and a checkpoint header for a two-point
// grid, as literals so the rejection table and the fuzz corpus share
// them. testHeader is what Open writes for twoPoints (see
// TestGoldenHeader); v1Header is the SHA-256-bound header this build
// refuses.
const (
	testJob    = `{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"uniform"},"steps":2000,"warmup_fraction":0.1}`
	testHeader = `{"v":2,"format":"pwf-checkpoint","grid":{"v":1,"seed":7,"jobs":[` + testJob + `,` + testJob + `]}}` + "\n"
	v1Header   = `{"v":1,"format":"pwf-checkpoint","grid_sha256":"00","seed":7,"points":2}` + "\n"
	testRecord = `{"v":1,"index":%d,"job":{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"uniform"},` +
		`"steps":2000,"warmup_fraction":0.1},"seed":7,"latencies":{"system":2.5,"individual":5,` +
		`"completion_rate":0.4,"fairness":1,"completions":800},"proc_completions":[400,400],"theta":0.5}` + "\n"
)

func record(index int) string { return fmt.Sprintf(testRecord, index) }

// twoPoints is the sweep testHeader binds.
func twoPoints() sweep.Config {
	job := sweep.Job{Workload: sweep.Workload{Kind: sweep.SCU, S: 1}, N: 2,
		Sched: sweep.SchedulerSpec{Kind: sweep.SchedUniform}, Steps: 2000, WarmupFraction: 0.1}
	return sweep.Config{Jobs: []sweep.Job{job, job}, Seed: 7}
}

// notCheckpoints are files Load must refuse: the first three are a
// pwfsweep -out results file (no header: its first result line decodes
// as a header without a format), a record of a future schema version,
// and a record for a point outside the grid; the last two are a v1
// header and a header whose grid fails strict decoding.
var notCheckpoints = []struct{ name, data string }{
	{"results file", record(0) + record(1)},
	{"record version 7", testHeader + strings.Replace(record(0), `"v":1`, `"v":7`, 1)},
	{"negative index", testHeader + record(-5)},
	{"index past points", testHeader + record(2)},
	{"duplicate index", testHeader + record(1) + record(1)},
	{"header version 1", v1Header + record(0)},
	{"unknown workload in header grid", strings.Replace(testHeader, `"scu"`, `"sku"`, 1) + record(0)},
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

// ReadHeader checks the header line as Load does and reads nothing
// after it.
func TestReadHeader(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := os.WriteFile(good, []byte(testHeader+record(0)+record(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged.ckpt")
	if err := os.WriteFile(damaged, []byte(testHeader+"not a record\n"+record(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(damaged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of a garbage record: %v; want ErrCorrupt", err)
	}
	for _, path := range []string{good, damaged} {
		meta, err := ReadHeader(path)
		if err != nil || !reflect.DeepEqual(meta, want) {
			t.Errorf("%s: ReadHeader = %+v, %v; want %+v", path, meta, err, want)
		}
	}

	for _, tc := range notCheckpoints {
		if strings.HasPrefix(tc.data, testHeader) {
			continue // the defect is in a record
		}
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_"))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if meta, err := ReadHeader(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadHeader = %+v, %v; want ErrCorrupt", tc.name, meta, err)
		}
	}
	headerless := filepath.Join(dir, "headerless.ckpt")
	if err := os.WriteFile(headerless, []byte(strings.TrimSuffix(testHeader, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(headerless); !errors.Is(err, ErrCorrupt) {
		t.Errorf("header without its newline: %v; want ErrCorrupt", err)
	}
	if _, err := ReadHeader(filepath.Join(dir, "missing.ckpt")); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("missing file: %v; want a read error", err)
	}
}

// FuzzCheckpointLoad feeds Load arbitrary file contents: it must never
// panic, and every file it accepts is a current-format checkpoint whose
// grid re-encodes to a grid DecodeGrid accepts and whose record indices
// lie in [0, len(Grid.Jobs)) and appear once each.
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
		enc, err := api.MarshalGrid(meta.Grid)
		if err != nil {
			t.Fatalf("accepted grid does not re-encode: %v", err)
		}
		if _, err := api.DecodeGrid(bytes.NewReader(enc)); err != nil {
			t.Fatalf("accepted grid re-encodes to %s, which does not decode: %v", enc, err)
		}
		points := len(meta.Grid.Jobs)
		seen := make(map[int]bool, len(recs))
		for _, r := range recs {
			if r.Index < 0 || r.Index >= points || seen[r.Index] {
				t.Fatalf("accepted record index %d (points %d, repeated %v)", r.Index, points, seen[r.Index])
			}
			seen[r.Index] = true
		}
	})
}

// The golden file pins the header bytes Open writes: if this test
// fails, the file format changed and Version must be bumped.
func TestGoldenHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, twoPoints(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "header_v2.ckpt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/checkpoint -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("header drifted from %s.\n got: %s\nwant: %s\nIf the format change is intentional, bump Version and regenerate with -update.",
			golden, got, want)
	}
	if string(got) != testHeader {
		t.Errorf("testHeader is not the header Open writes:\n got: %s\nwant: %s", testHeader, got)
	}
}

// A v1 header is a deliberate format break: Open and Load both refuse
// it, naming the version found and the version this build speaks.
func TestV1HeaderRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, []byte(v1Header+record(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, lerr := Load(path)
	l, oerr := Open(path, twoPoints(), Options{})
	if l != nil {
		l.Close()
	}
	for name, err := range map[string]error{"Load": lerr, "Open": oerr} {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v2") {
			t.Errorf("%s of a v1 checkpoint: %v; want ErrCorrupt naming v1 and v2", name, err)
		}
	}
}
