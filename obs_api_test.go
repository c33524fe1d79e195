package pwf_test

import (
	"bytes"
	"testing"

	"pwf"
)

func TestRunWithTrace(t *testing.T) {
	var buf bytes.Buffer
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 4)
	cfg.Steps = 10000
	tw, err := pwf.NewTraceWriter(&buf, pwf.TraceCompressNone)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = tw
	lat, err := pwf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Completions == 0 {
		t.Fatal("no completions")
	}
	events, err := pwf.ReadTraceEvents(&buf)
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	var completes uint64
	for _, e := range events {
		if e.Kind == pwf.EventComplete {
			completes++
		}
	}
	// The trace covers warmup + measurement while Latencies covers only
	// the measurement window, so the trace must see at least as many.
	if completes < lat.Completions {
		t.Errorf("trace has %d complete events, latencies report %d",
			completes, lat.Completions)
	}
}

// TestRunWithTraceFormat runs the same seed once per trace
// compression and requires the decoded event streams to be identical:
// compression changes the bytes on disk, never the recorded history.
func TestRunWithTraceFormat(t *testing.T) {
	var first []pwf.Event
	for _, comp := range []pwf.TraceCompression{pwf.TraceCompressNone, pwf.TraceCompressGzip} {
		var buf bytes.Buffer
		tw, err := pwf.NewTraceWriter(&buf, comp)
		if err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 4)
		cfg.Steps = 10000
		cfg.Recorder = tw
		if _, err := pwf.Run(cfg); err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		events, err := pwf.ReadTraceEvents(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", comp, err)
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
}

// TestWithTraceFormatRejectsBadCombo checks the fail-fast path:
// NewTraceWriter refuses an unknown compression instead of returning
// a writer whose file no reader accepts.
func TestWithTraceFormatRejectsBadCombo(t *testing.T) {
	var buf bytes.Buffer
	if _, err := pwf.NewTraceWriter(&buf, pwf.TraceCompression(7)); err == nil {
		t.Fatal("NewTraceWriter accepted an unknown compression")
	}
	if buf.Len() != 0 {
		// The binary writer writes its header eagerly; nothing should
		// reach the buffer for a rejected compression.
		t.Errorf("rejected writer wrote %d bytes", buf.Len())
	}
}

// TestRunSweepBinaryTrace records a sweep in the binary format and
// checks the job lifecycle events survive the round trip.
func TestRunSweepBinaryTrace(t *testing.T) {
	var buf bytes.Buffer
	jobs := []pwf.SweepJob{
		{Workload: pwf.SCUWorkload(0, 1), N: 2, Steps: 5000},
		{Workload: pwf.FetchIncWorkload(), N: 2, Steps: 5000},
	}
	tw, err := pwf.NewTraceWriter(&buf, pwf.TraceCompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 1, Recorder: tw}); err != nil {
		t.Fatal(err)
	}
	events, err := pwf.ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	starts, ends := 0, 0
	for _, e := range events {
		switch e.Kind {
		case pwf.EventJobStart:
			starts++
		case pwf.EventJobEnd:
			ends++
			if e.ElapsedNS <= 0 {
				t.Errorf("job %d: elapsed_ns = %d", e.Job, e.ElapsedNS)
			}
		}
	}
	if starts != len(jobs) || ends != len(jobs) {
		t.Errorf("%d job_start / %d job_end events, want %d each", starts, ends, len(jobs))
	}
}

func TestRunWithRecorderMetrics(t *testing.T) {
	reg := pwf.DefaultRegistry()
	before := reg.Snapshot().Counters["sim_completions"]
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 4)
	cfg.Steps = 10000
	cfg.Recorder = pwf.NewMetricsRecorder(nil)
	if _, err := pwf.Run(cfg); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters["sim_completions"]
	if after <= before {
		t.Errorf("sim_completions did not advance: %d -> %d", before, after)
	}
}

func TestRunSweepWithTrace(t *testing.T) {
	var buf bytes.Buffer
	jobs := []pwf.SweepJob{
		{Workload: pwf.SCUWorkload(0, 1), N: 2, Steps: 5000},
		{Workload: pwf.FetchIncWorkload(), N: 2, Steps: 5000},
	}
	tw, err := pwf.NewTraceWriter(&buf, pwf.TraceCompressNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 1, Recorder: tw}); err != nil {
		t.Fatal(err)
	}
	events, err := pwf.ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	jobEnds := 0
	for _, e := range events {
		if e.Kind == pwf.EventJobEnd {
			jobEnds++
		}
	}
	if jobEnds != len(jobs) {
		t.Errorf("%d job_end events, want %d", jobEnds, len(jobs))
	}
}

// TestRunFlushesMultiRecorder checks that Run's flush reaches a trace
// writer fanned out beside a metrics recorder: the trace decodes with
// every scheduling decision of warmup and measurement.
func TestRunFlushesMultiRecorder(t *testing.T) {
	var buf bytes.Buffer
	tw, err := pwf.NewTraceWriter(&buf, pwf.TraceCompressNone)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 2)
	cfg.Steps = 100
	cfg.Recorder = pwf.MultiRecorder(tw, pwf.NewMetricsRecorder(nil))
	if _, err := pwf.Run(cfg); err != nil {
		t.Fatal(err)
	}
	events, err := pwf.ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sched := 0
	for _, e := range events {
		if e.Kind == pwf.EventSched {
			sched++
		}
	}
	if sched != 110 {
		t.Errorf("trace holds %d sched events, want 110 (100 steps and 10%% warmup)", sched)
	}
}
