package sched

import (
	"errors"
	"testing"

	"pwf/internal/rng"
)

func TestReplayValidation(t *testing.T) {
	if _, err := NewReplay(0, []int32{0}, false); !errors.Is(err, ErrNoProcesses) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := NewReplay(2, nil, false); err == nil {
		t.Error("empty trace: nil error")
	}
	if _, err := NewReplay(2, []int32{0, 5}, false); !errors.Is(err, ErrBadProcess) {
		t.Errorf("out-of-range pid: %v", err)
	}
	if _, err := NewReplay(2, []int32{-1}, false); !errors.Is(err, ErrBadProcess) {
		t.Errorf("negative pid: %v", err)
	}
}

func TestReplayPlaysTraceInOrder(t *testing.T) {
	trace := []int32{2, 0, 1, 1, 0}
	r, err := NewReplay(3, trace, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range trace {
		if got := r.Remaining(); got != len(trace)-i {
			t.Fatalf("Remaining before step %d = %d", i, got)
		}
		pid, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid != int(want) {
			t.Fatalf("step %d: pid %d, want %d", i, pid, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, ErrTraceExhausted) {
		t.Fatalf("exhausted trace: %v", err)
	}
}

func TestReplayLoops(t *testing.T) {
	r, err := NewReplay(2, []int32{0, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pid, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pid != i%2 {
			t.Fatalf("step %d: pid %d, want %d", i, pid, i%2)
		}
	}
}

func TestReplayCopiesTrace(t *testing.T) {
	trace := []int32{0, 1}
	r, err := NewReplay(2, trace, false)
	if err != nil {
		t.Fatal(err)
	}
	trace[0] = 1
	pid, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if pid != 0 {
		t.Fatal("NewReplay did not copy the trace")
	}
}

func TestReplayZeroThreshold(t *testing.T) {
	r, err := NewReplay(2, []int32{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Threshold() != 0 {
		t.Error("replay should report zero threshold")
	}
	if r.N() != 2 {
		t.Errorf("N = %d", r.N())
	}
}

// TestReplayRecordedNaiveTraceByteForByte closes the compatibility
// loop of the sampler rewrite: a schedule trace recorded under the
// superseded O(n) samplers (naiveNext, i.e. what any pre-rewrite run
// would have written to disk) must replay element-for-element through
// the untouched Replay scheduler. One table runs each recording
// policy, with one process crashed, through the Crasher interface.
func TestReplayRecordedNaiveTraceByteForByte(t *testing.T) {
	const n = 8
	l, err := NewLottery([]int{1, 2, 3, 4, 5, 6, 7, 8}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sched Crasher
		crash int
	}{
		{"uniform", mustUniform(t, n, 31), 3},
		{"lottery", l, 5},
	} {
		if err := tc.sched.Crash(tc.crash); err != nil {
			t.Fatal(err)
		}
		next := naiveNext(tc.sched)
		trace := make([]int32, 4096)
		for i := range trace {
			pid, err := next()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			trace[i] = int32(pid)
		}
		r, err := NewReplay(n, trace, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, want := range trace {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("%s: step %d: %v", tc.name, i, err)
			}
			if got != int(want) {
				t.Fatalf("%s: step %d: replayed %d, recorded %d", tc.name, i, got, want)
			}
		}
		if _, err := r.Next(); !errors.Is(err, ErrTraceExhausted) {
			t.Fatalf("%s: after trace: %v", tc.name, err)
		}
	}
}
