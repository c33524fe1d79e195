package obs_test

import (
	"bytes"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/obs"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

// buildSCUSim assembles an SCU(0,1) simulator over n processes with
// the given scheduler, recording into rec.
func buildSCUSim(t *testing.T, n int, sch sched.Scheduler, rec obs.Recorder) *machine.Sim {
	t.Helper()
	mem, err := shmem.New(scu.SCULayout(1))
	if err != nil {
		t.Fatal(err)
	}
	procs, err := scu.NewSCUGroup(n, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := machine.New(mem, procs, sch)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetRecorder(rec)
	return sim
}

// eventSlice is an in-memory recorder keeping every event it is given.
type eventSlice []obs.Event

func (s *eventSlice) Record(e obs.Event) { *s = append(*s, e) }

// TestBinaryTraceReplayRoundTrip is the acceptance test for the trace
// format: a run recorded in the binary format must decode to exactly
// the events the simulator emitted (an in-memory recording of the
// same seed), and feeding the recovered schedule through sched.Replay
// on a fresh identical workload must reproduce the trace byte for
// byte.
func TestBinaryTraceReplayRoundTrip(t *testing.T) {
	const (
		n     = 4
		steps = 20000
		seed  = 42
	)
	for _, comp := range []obs.Compression{obs.CompressNone, obs.CompressGzip} {
		t.Run(comp.String(), func(t *testing.T) {
			uni, err := sched.NewUniform(n, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			var orig bytes.Buffer
			bw := obs.NewBinaryTraceWriter(&orig, obs.BinaryTraceOptions{
				Compression: comp, Registry: obs.NewRegistry(),
			})
			sim := buildSCUSim(t, n, uni, bw)
			if err := sim.Run(steps); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			origBytes := append([]byte(nil), orig.Bytes()...)

			events, err := obs.ReadBinaryEvents(&orig)
			if err != nil {
				t.Fatalf("recorded binary trace does not decode: %v", err)
			}

			// The same seed recorded in memory is what the simulator
			// emitted: the decoder must give back exactly that.
			uniM, err := sched.NewUniform(n, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			var emitted eventSlice
			if err := buildSCUSim(t, n, uniM, &emitted).Run(steps); err != nil {
				t.Fatal(err)
			}
			if len(events) != len(emitted) {
				t.Fatalf("binary run has %d events, in-memory run %d", len(events), len(emitted))
			}
			for i := range events {
				if events[i] != emitted[i] {
					t.Fatalf("event %d: binary %+v vs emitted %+v", i, events[i], emitted[i])
				}
			}

			// Replay the recovered schedule; the rerecorded binary
			// trace must match the original byte for byte: same CAS
			// outcomes, same retries, same completions at the same
			// steps.
			var trace []int32
			for _, e := range events {
				if e.Kind == obs.KindSched {
					trace = append(trace, int32(e.PID))
				}
			}
			if len(trace) != steps {
				t.Fatalf("recovered %d sched events, want %d", len(trace), steps)
			}
			replay, err := sched.NewReplay(n, trace, false)
			if err != nil {
				t.Fatal(err)
			}
			var rep bytes.Buffer
			bw2 := obs.NewBinaryTraceWriter(&rep, obs.BinaryTraceOptions{
				Compression: comp, Registry: obs.NewRegistry(),
			})
			sim2 := buildSCUSim(t, n, replay, bw2)
			if err := sim2.Run(steps); err != nil {
				t.Fatal(err)
			}
			if err := bw2.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(origBytes, rep.Bytes()) {
				t.Fatal("replayed binary trace differs from the original")
			}
			for pid := 0; pid < n; pid++ {
				if a, b := sim.Completions()[pid], sim2.Completions()[pid]; a != b {
					t.Errorf("pid %d: completions %d (original) vs %d (replay)", pid, a, b)
				}
			}
			if sim.TotalCompletions() == 0 {
				t.Fatal("degenerate run: no completions")
			}
		})
	}
}
