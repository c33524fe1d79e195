package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"pwf/internal/api"
	"pwf/internal/checkpoint"
	"pwf/internal/sweep"
)

// A checkpoint append that fails mid-sweep fails the sweep loudly: the
// stream carries the points committed before the failure and then one
// api.Error naming the checkpoint file. The file-size limit cuts the
// third record short with EFBIG. After the limit is lifted, a server
// restarted on the same directory resumes the sweep from the committed
// prefix and streams the local run's bytes exactly.
//
// RLIMIT_FSIZE applies to the whole process, which is why no test in
// this package runs in parallel.
func TestCheckpointAppendFailureFailsSweep(t *testing.T) {
	// One workload family whose points differ only in Steps: family
	// ordering keeps input order, nothing replica-batches, and one
	// worker commits the points in index order.
	g := api.Grid{V: api.Version, Seed: 11}
	for steps := uint64(4000); steps < 4006; steps++ {
		g.Jobs = append(g.Jobs, api.Job{
			Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: steps,
		})
	}
	want := localLines(t, g)
	lines := bytes.SplitAfter(want, []byte("\n"))
	committed := bytes.Join(lines[:2], nil)

	// The checkpoint's header is a function of the grid alone; measure
	// it on a scratch copy so the limit admits the header and exactly
	// two records.
	probe := filepath.Join(t.TempDir(), "probe.ckpt")
	cp, err := checkpoint.Open(probe, sweep.Config{Jobs: g.SweepJobs(), Seed: g.Seed}, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	fi, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gate := make(chan struct{})
	s1, ts1 := startServer(t, Config{CheckpointDir: dir, Workers: 1, gate: gate})
	id, _ := submit(t, ts1, g)

	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	lowered := limit
	lowered.Cur = uint64(fi.Size()) + uint64(len(committed)) + 10
	if lowered.Cur > limit.Max {
		t.Skipf("hard file-size limit %d is below %d", limit.Max, lowered.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit) // after an early Fatal

	gate <- struct{}{}
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); rerr != nil {
		t.Fatalf("restore file-size limit: %v", rerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.HasPrefix(stream, committed) {
		t.Fatalf("failed stream does not start with the two committed lines:\n%s", stream)
	}
	rest := bytes.TrimSuffix(stream[len(committed):], []byte("\n"))
	if bytes.Count(rest, []byte("\n")) != 0 {
		t.Fatalf("want exactly one line after the committed prefix, got:\n%s", rest)
	}
	var e api.Error
	if err := json.Unmarshal(rest, &e); err != nil {
		t.Fatalf("last stream line is not an api.Error: %v: %s", err, rest)
	}
	if ckpt := s1.ckptPath(id); !strings.Contains(e.Message, ckpt) {
		t.Errorf("error %q does not name %s", e.Message, ckpt)
	}

	sresp, err := http.Get(ts1.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&status)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status.Status != "failed" {
		t.Errorf("sweep status %q, want failed", status.Status)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := startServer(t, Config{CheckpointDir: dir, Workers: 1})
	resp2, err := http.Get(ts2.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	again, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("restarted stream differs from local run:\n%s\nwant:\n%s", again, want)
	}
}
