package progress

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustTrace(t *testing.T, n int, steps uint64, events []Event) *Trace {
	t.Helper()
	tr, err := NewTrace(n, steps, events)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(0, 10, nil); err == nil {
		t.Error("n=0: nil error")
	}
	if _, err := NewTrace(2, 10, []Event{{Step: 5, PID: 7}}); !errors.Is(err, ErrBadEvent) {
		t.Error("bad pid accepted")
	}
	if _, err := NewTrace(2, 10, []Event{{Step: 0, PID: 0}}); !errors.Is(err, ErrBadEvent) {
		t.Error("step 0 accepted")
	}
	if _, err := NewTrace(2, 10, []Event{{Step: 11, PID: 0}}); !errors.Is(err, ErrBadEvent) {
		t.Error("step beyond execution accepted")
	}
	if _, err := NewTrace(2, 10, []Event{{Step: 5, PID: 0}, {Step: 3, PID: 1}}); !errors.Is(err, ErrUnordered) {
		t.Error("unordered events accepted")
	}
}

func TestNewTraceCopiesEvents(t *testing.T) {
	events := []Event{{Step: 1, PID: 0}}
	tr := mustTrace(t, 1, 5, events)
	events[0].Step = 99
	if tr.Events[0].Step != 1 {
		t.Fatal("NewTrace did not copy events")
	}
}

func TestMinimalProgressBound(t *testing.T) {
	// Completions at 3, 5, 10 over 12 steps: gaps 3, 2, 5, trailing 2.
	tr := mustTrace(t, 2, 12, []Event{
		{Step: 3, PID: 0}, {Step: 5, PID: 1}, {Step: 10, PID: 0},
	})
	got, err := tr.MinimalProgressBound()
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("MinimalProgressBound = %d, want 5", got)
	}
}

func TestMinimalProgressBoundLeadingGapDominates(t *testing.T) {
	tr := mustTrace(t, 1, 10, []Event{{Step: 9, PID: 0}})
	got, err := tr.MinimalProgressBound()
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("bound = %d, want 9", got)
	}
}

func TestMinimalProgressBoundNoEvents(t *testing.T) {
	tr := mustTrace(t, 1, 100, nil)
	got, err := tr.MinimalProgressBound()
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("bound with no completions = %d, want 100", got)
	}
}

func TestMinimalProgressBoundEmptyExecution(t *testing.T) {
	tr := mustTrace(t, 1, 0, nil)
	if _, err := tr.MinimalProgressBound(); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("empty execution: %v", err)
	}
}

func TestMaximalProgressBound(t *testing.T) {
	// Two processes over 20 steps; p0 completes at 4 and 8, p1 at 6.
	// p0's worst window is 20-8=12; p1's is 20-6=14.
	tr := mustTrace(t, 2, 20, []Event{
		{Step: 4, PID: 0}, {Step: 6, PID: 1}, {Step: 8, PID: 0},
	})
	got, err := tr.MaximalProgressBound()
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Fatalf("MaximalProgressBound = %d, want 14", got)
	}
}

func TestMaximalProgressBoundStarvation(t *testing.T) {
	// A process with no completions contributes the full length.
	tr := mustTrace(t, 3, 50, []Event{{Step: 1, PID: 0}, {Step: 2, PID: 1}})
	got, err := tr.MaximalProgressBound()
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("bound = %d, want 50 (starved process)", got)
	}
}

func TestCompletionsAndStarved(t *testing.T) {
	tr := mustTrace(t, 3, 10, []Event{
		{Step: 1, PID: 0}, {Step: 2, PID: 0}, {Step: 3, PID: 2},
	})
	counts := tr.CompletionsPerProcess()
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	starved := tr.Starved()
	if len(starved) != 1 || starved[0] != 1 {
		t.Fatalf("Starved = %v, want [1]", starved)
	}
}

func TestGapQuantile(t *testing.T) {
	// p0 gaps: 2 (1→3), 6 (3→9). p1 gaps: 4 (2→6).
	tr := mustTrace(t, 2, 10, []Event{
		{Step: 1, PID: 0}, {Step: 2, PID: 1}, {Step: 3, PID: 0},
		{Step: 6, PID: 1}, {Step: 9, PID: 0},
	})
	med, err := tr.GapQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med != 4 {
		t.Fatalf("median gap = %v, want 4", med)
	}
	maxG, err := tr.GapQuantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if maxG != 6 {
		t.Fatalf("max gap = %v, want 6", maxG)
	}
}

func TestGapQuantileErrors(t *testing.T) {
	tr := mustTrace(t, 2, 10, []Event{{Step: 1, PID: 0}})
	if _, err := tr.GapQuantile(0.5); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("single completion: %v", err)
	}
	if _, err := tr.GapQuantile(-1); err == nil {
		t.Error("q=-1: nil error")
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Observe(1, 0)
	c.Observe(5, 1)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	tr, err := c.Trace(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || tr.Events[1].Step != 5 {
		t.Fatalf("trace events = %v", tr.Events)
	}
}

func TestTheorem3ExpectedBound(t *testing.T) {
	got, err := Theorem3ExpectedBound(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("(1/0.5)^3 = %v, want 8", got)
	}
	got, err = Theorem3ExpectedBound(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("theta=1 bound = %v, want 1", got)
	}
	// Astronomic bounds overflow to +Inf rather than erroring.
	got, err = Theorem3ExpectedBound(0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("huge bound = %v, want +Inf", got)
	}
}

func TestTheorem3ExpectedBoundErrors(t *testing.T) {
	if _, err := Theorem3ExpectedBound(0, 1); err == nil {
		t.Error("theta=0: nil error")
	}
	if _, err := Theorem3ExpectedBound(1.5, 1); err == nil {
		t.Error("theta>1: nil error")
	}
}

func TestQuickMinimalLEMaximal(t *testing.T) {
	// Property: the minimal-progress bound never exceeds the
	// maximal-progress bound (if some process must complete in every
	// B-window, then in particular any process's window is >= the
	// global one).
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		var events []Event
		step := uint64(0)
		for _, r := range raw {
			step += uint64(r%50) + 1
			events = append(events, Event{Step: step, PID: int(r) % n})
		}
		total := step + 10
		tr, err := NewTrace(n, total, events)
		if err != nil {
			return false
		}
		minB, err1 := tr.MinimalProgressBound()
		maxB, err2 := tr.MaximalProgressBound()
		if err1 != nil || err2 != nil {
			return false
		}
		return minB <= maxB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBoundWithinExecution(t *testing.T) {
	f := func(raw []uint16) bool {
		var events []Event
		step := uint64(0)
		for _, r := range raw {
			step += uint64(r%100) + 1
			events = append(events, Event{Step: step, PID: 0})
		}
		total := step + uint64(len(raw))
		if total == 0 {
			return true
		}
		tr, err := NewTrace(1, total, events)
		if err != nil {
			return false
		}
		minB, err := tr.MinimalProgressBound()
		if err != nil {
			return false
		}
		return minB <= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
