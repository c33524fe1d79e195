package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"pwf/internal/api"
	"pwf/internal/sweep"
)

// manifest reads the metric names and units BENCHMARK.json declares.
func manifest(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, ok := workloads()[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range m.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range m.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

// smallWorkloads are reduced-size versions of every workload, with no
// pinned digests (those hold for the full sizes only).
func smallWorkloads() map[string]workload {
	return map[string]workload{
		"grid-batched":  &gridWorkload{name: "grid-batched", build: batchedGrid, steps: 1_000, checkpoint: true},
		"grid-observed": &gridWorkload{name: "grid-observed", build: observedGrid, steps: observedSteps, observe: true},
		"serve-loop":    &serveWorkload{sweeps: 20},
	}
}

// checkReport asserts a report passed its output checks and carries
// exactly the declared metrics, each with its unit, and that its JSON
// line has exactly the contract's keys.
func checkReport(t *testing.T, rep report, want map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("output checks: correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("report keys %s", b)
	}
}

func TestWorkloadSmoke(t *testing.T) {
	endToEnd, perLayer := manifest(t)
	for name, w := range smallWorkloads() {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			e := &env{seed: 3, tmp: t.TempDir(), stderr: &log, digests: map[string]string{}}
			rep, err := timedRun(e, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			rep, err = tracedRun(e, w)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			if cov := rep.Metrics["trace.coverage"].Value; cov < 0.9 {
				t.Errorf("trace.coverage %v", cov)
			}
			if t.Failed() {
				t.Log(log.String())
			}
		})
	}
}

// TestPinnedBatchedDigestIsScalarPath anchors the pinned grid-batched
// digest: the same grid run on the scalar path (ReplicaBatch 1) must
// produce exactly the pinned bytes.
func TestPinnedBatchedDigestIsScalarPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full grid on the scalar path")
	}
	want, ok := pinnedDigests["grid-batched"][1]
	if !ok {
		t.Fatal("no pinned grid-batched digest for seed 1")
	}
	grid := batchedGrid(1, batchedSteps)
	results, err := sweep.Run(sweep.Config{
		Jobs: grid.SweepJobs(), Seed: grid.Seed,
		Workers: runtime.GOMAXPROCS(0), ReplicaBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range results {
		if err := api.WriteResultLine(h, api.ResultFromSweep(r)); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("scalar-path digest %s, pinned %s", got, want)
	}
}

// TestCheckDigest covers the pinned and the unpinned comparison.
func TestCheckDigest(t *testing.T) {
	e := &env{seed: 1, stderr: io.Discard, digests: map[string]string{}}
	pinned := map[uint64]string{1: "aa"}
	if msg := e.checkDigest("x", pinned, "aa"); msg != "" {
		t.Error(msg)
	}
	if msg := e.checkDigest("x", pinned, "bb"); msg == "" {
		t.Error("pinned mismatch not reported")
	}
	e.seed = 2
	if msg := e.checkDigest("x", pinned, "cc"); msg != "" {
		t.Error(msg)
	}
	if msg := e.checkDigest("x", pinned, "dd"); msg == "" {
		t.Error("unpinned digest changed between rounds without a report")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-loop", "--trace", "2"},
		{"--workload", "serve-loop", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if err := run(append(args, "--tmp", t.TempDir()), &out, io.Discard); err == nil {
			t.Errorf("%s: no error", strings.Join(args, " "))
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q", strings.Join(args, " "), out.String())
		}
	}
}
