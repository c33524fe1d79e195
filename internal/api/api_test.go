package api

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pwf/internal/rng"
	"pwf/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

func sampleGrid() Grid {
	return Grid{
		V:    Version,
		Seed: 42,
		Jobs: []Job{
			{
				Workload:       Workload{Kind: sweep.SCU, S: 1},
				N:              4,
				Steps:          20000,
				WarmupFraction: 0.1,
				Exact:          true,
				Label:          "scu-point",
			},
			{
				Workload: Workload{Kind: sweep.FetchInc},
				N:        3,
				Sched:    SchedulerSpec{Kind: sweep.SchedSticky, Rho: 0.5},
				Steps:    20000,
			},
			{
				Workload: Workload{Kind: sweep.Stack, PoolSize: 16},
				N:        2,
				Sched:    SchedulerSpec{Kind: sweep.SchedLottery, Tickets: []int{1, 3}},
				Steps:    10000,
				Crash:    1,
			},
		},
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := sampleGrid()
	b, err := MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(b, '\n') {
		t.Error("canonical grid encoding is not single-line")
	}
	back, err := DecodeGrid(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, g) {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, g)
	}
}

func TestJobProjectionRoundTrip(t *testing.T) {
	for i, j := range sampleGrid().Jobs {
		if got := JobFromSweep(j.Sweep()); !reflect.DeepEqual(got, j) {
			t.Errorf("job %d: %+v != %+v", i, got, j)
		}
	}
}

func TestDecodeGridStrictness(t *testing.T) {
	for _, tc := range []struct {
		name, in, errWant string
	}{
		{"unknown field", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":100,"warmup_fraction":0,"stepz":5}]}`, "unknown field"},
		{"wrong version", `{"v":2,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":100,"warmup_fraction":0}]}`, "unsupported schema version"},
		{"zero version", `{"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":100,"warmup_fraction":0}]}`, "unsupported schema version"},
		{"no jobs", `{"v":1,"seed":1,"jobs":[]}`, "no jobs"},
		{"trailing data", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":100,"warmup_fraction":0}]} {"more":1}`, "trailing data"},
		{"invalid job", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":0,"steps":100,"warmup_fraction":0}]}`, "n >= 1"},
		{"scu negative q", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","q":-1,"s":1},"n":2,"steps":100,"warmup_fraction":0}]}`, "S >= 1, got Q=-1 S=1"},
		{"scu without s", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":100,"warmup_fraction":0}]}`, "S >= 1, got Q=0 S=0"},
		{"negative wait factor", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"unbounded","wait_factor":-1},"n":2,"steps":100,"warmup_fraction":0}]}`, "negative wait factor"},
		{"bad sched string", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"sched":"sticky:9","steps":100,"warmup_fraction":0}]}`, "out of [0, 1)"},
		{"not json", `nope`, "decode grid"},
		{"unknown scheduler field", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"sticky","rho":0.5,"rh0":0.9},"steps":100,"warmup_fraction":0}]}`, "unknown field"},
		{"trailing bracket", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"steps":100,"warmup_fraction":0}]}]`, "trailing data"},
		{"trailing brace", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"steps":100,"warmup_fraction":0}]}}`, "trailing data"},
		{"duplicate key", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"n":3,"steps":100,"warmup_fraction":0}]}`, "duplicate field"},
		{"case-variant key", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"N":4,"steps":100,"warmup_fraction":0}]}`, "unknown field"},
	} {
		_, err := DecodeGrid(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errWant)
		}
	}
}

// The scheduler grammar string and the object form decode to the same
// grid.
func TestGridSchedulerStringForm(t *testing.T) {
	obj := `{"v":1,"seed":7,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"sticky","rho":0.25},"steps":100,"warmup_fraction":0}]}`
	str := `{"v":1,"seed":7,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"sched":"sticky:0.25","steps":100,"warmup_fraction":0}]}`
	a, err := DecodeGrid(strings.NewReader(obj))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeGrid(strings.NewReader(str))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("object form %+v != string form %+v", a, b)
	}
}

func TestResultStreamRoundTrip(t *testing.T) {
	g := sampleGrid()
	jobs := g.SweepJobs()
	results, err := sweep.Run(sweep.Config{Jobs: jobs, Seed: g.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	want := make([]Result, len(results))
	for i, r := range results {
		want[i] = ResultFromSweep(r)
		if err := WriteResultLine(&buf, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stream round trip:\n got %+v\nwant %+v", got, want)
	}
	if got[0].Seed != rng.Stream(g.Seed, 0) {
		t.Errorf("result 0 seed %d is not stream(master, 0)", got[0].Seed)
	}
}

// The canonical result encoding is deterministic: two runs of the
// same grid and seed produce byte-identical lines, regardless of
// worker count — the property the server's end-to-end test leans on.
func TestCanonicalResultBytesDeterministic(t *testing.T) {
	g := sampleGrid()
	render := func(workers int) string {
		results, err := sweep.Run(sweep.Config{Jobs: g.SweepJobs(), Seed: g.Seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range results {
			if err := WriteResultLine(&buf, ResultFromSweep(r)); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Errorf("canonical bytes differ across worker counts:\n%s\n---\n%s", a, b)
	}
}

func TestReadResultsRejectsWrongVersion(t *testing.T) {
	line := `{"v":2,"index":0,"job":{"workload":{"kind":"scu"},"n":2,"sched":{},"steps":10,"warmup_fraction":0},"seed":1,"latencies":{"system":1,"individual":1,"completion_rate":1,"fairness":1,"completions":1},"theta":0.5}`
	if _, err := ReadResults(strings.NewReader(line + "\n")); err == nil {
		t.Error("wrong-version result line accepted")
	}
}

// Golden files pin the canonical v1 bytes: if these tests fail, the
// wire format changed and Version must be bumped (see the package
// compatibility policy).
func TestGoldenGrid(t *testing.T) {
	got, err := MarshalGrid(sampleGrid())
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, "grid_v1.json", got)
}

func TestGoldenResult(t *testing.T) {
	g := sampleGrid()
	results, err := sweep.Run(sweep.Config{Jobs: g.SweepJobs(), Seed: g.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		if err := WriteResultLine(&buf, ResultFromSweep(r)); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "results_v1.ndjson", buf.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/api -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden bytes.\n got: %s\nwant: %s\nIf the schema change is intentional, bump api.Version and regenerate with -update.",
			name, got, want)
	}
}
