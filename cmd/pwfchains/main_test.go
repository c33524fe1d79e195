package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwf/internal/obs"
)

func TestRunSCUChain(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-chain", "scu", "-n", "3"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"system latency", "lifting verified", "W_0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunFetchIncChain(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-chain", "fetchinc", "-n", "4"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Ramanujan", "Lemma 12", "lifting verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunParallelChain(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-chain", "parallel", "-n", "3", "-q", "2"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Lemma 11") {
		t.Errorf("missing Lemma 11 line:\n%s", buf.String())
	}
}

func TestRunSystemOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-chain", "scu", "-n", "20", "-individual=false"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "lifting verified") {
		t.Error("lifting ran despite -individual=false")
	}
}

func TestRunIndividualTooLargeDegradesGracefully(t *testing.T) {
	// n beyond the individual-chain cap must still print the system
	// analysis and say why the lifting was skipped.
	var buf bytes.Buffer
	if err := run([]string{"-chain", "scu", "-n", "12"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "individual chain skipped") {
		t.Errorf("missing skip notice:\n%s", buf.String())
	}
}

func TestRunDOT(t *testing.T) {
	for _, chain := range []string{"scu", "fetchinc", "parallel"} {
		var buf bytes.Buffer
		if err := run([]string{"-chain", chain, "-n", "2", "-dot"}, &buf, &buf); err != nil {
			t.Fatalf("%s: %v", chain, err)
		}
		out := buf.String()
		if !strings.Contains(out, "digraph") || !strings.Contains(out, "->") {
			t.Errorf("%s: not a DOT graph:\n%s", chain, out)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-chain", "nope", "-dot"}, &buf, &buf); err == nil {
		t.Error("bad chain with -dot: nil error")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-chain", "nope"},
		{"-chain", "scu", "-n", "0"},
		{"-badflag"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf, &buf); err == nil {
			t.Errorf("args %v: nil error", args)
		}
	}
}

// TestRunTraceRecordsLifecycle checks the -trace flag with and without
// compression: the analysis brackets into job_start/job_end events
// carrying the chain label and a positive wall time.
func TestRunTraceRecordsLifecycle(t *testing.T) {
	for _, comp := range []string{"none", "gzip"} {
		path := filepath.Join(t.TempDir(), "chains-trace")
		var out bytes.Buffer
		args := []string{"-chain", "scu", "-n", "3", "-trace", path, "-trace-compress", comp}
		if err := run(args, &out, &out); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadBinaryEvents(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", comp, err)
		}
		if len(events) != 2 {
			t.Fatalf("%s: got %d events, want job_start + job_end", comp, len(events))
		}
		if events[0].Kind != obs.KindJobStart || events[0].Label != "scu n=3" {
			t.Errorf("%s: first event %+v, want job_start with label", comp, events[0])
		}
		if events[1].Kind != obs.KindJobEnd || events[1].ElapsedNS <= 0 {
			t.Errorf("%s: second event %+v, want job_end with elapsed time", comp, events[1])
		}
	}
}

func TestRunMetricsReportsCacheHits(t *testing.T) {
	// The same chain twice: the second invocation must be a cache hit,
	// and -metrics must expose the hit/miss gauges.
	var out bytes.Buffer
	if err := run([]string{"-chain", "scu", "-n", "3"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	var errOut bytes.Buffer
	out.Reset()
	if err := run([]string{"-chain", "scu", "-n", "3", "-metrics"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]uint64 `json:"gauges"`
	}
	if err := json.Unmarshal(errOut.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, errOut.String())
	}
	if snap.Gauges["chain_cache_hits"] == 0 {
		t.Errorf("no cache hits after repeated analysis: %v", snap.Gauges)
	}
	if snap.Gauges["chain_cache_misses"] == 0 {
		t.Errorf("no cache misses recorded: %v", snap.Gauges)
	}
}
