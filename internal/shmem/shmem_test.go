package shmem

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, size int) *Memory {
	t.Helper()
	m, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewErrors(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative size: nil error")
	}
	m, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 {
		t.Errorf("Size = %d, want 0", m.Size())
	}
}

func TestReadWrite(t *testing.T) {
	m := mustNew(t, 3)
	if got := m.Read(0); got != 0 {
		t.Fatalf("initial Read = %d, want 0", got)
	}
	m.Write(1, 42)
	if got := m.Read(1); got != 42 {
		t.Fatalf("Read after Write = %d, want 42", got)
	}
	if got := m.Read(2); got != 0 {
		t.Fatalf("untouched register = %d, want 0", got)
	}
}

func TestCASSemantics(t *testing.T) {
	m := mustNew(t, 1)
	if !m.CAS(0, 0, 7) {
		t.Fatal("CAS with matching expected failed")
	}
	if got := m.Peek(0); got != 7 {
		t.Fatalf("after successful CAS, value = %d, want 7", got)
	}
	if m.CAS(0, 0, 9) {
		t.Fatal("CAS with stale expected succeeded")
	}
	if got := m.Peek(0); got != 7 {
		t.Fatalf("failed CAS mutated register: %d", got)
	}
}

func TestCASGetReturnsPrior(t *testing.T) {
	m := mustNew(t, 1)
	m.Poke(0, 5)
	prior, ok := m.CASGet(0, 5, 6)
	if !ok || prior != 5 {
		t.Fatalf("CASGet success: prior=%d ok=%v, want 5 true", prior, ok)
	}
	prior, ok = m.CASGet(0, 5, 7)
	if ok || prior != 6 {
		t.Fatalf("CASGet failure: prior=%d ok=%v, want 6 false", prior, ok)
	}
	if got := m.Peek(0); got != 6 {
		t.Fatalf("failed CASGet mutated register: %d", got)
	}
}

func TestCounters(t *testing.T) {
	m := mustNew(t, 2)
	m.Read(0)
	m.Read(1)
	m.Write(0, 1)
	m.CAS(0, 1, 2) // success
	m.CAS(0, 1, 3) // failure
	c := m.Counters()
	if c.Reads != 2 || c.Writes != 1 || c.CASes != 2 || c.CASFailures != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if got := c.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := m.Steps(); got != 5 {
		t.Fatalf("Steps = %d, want 5", got)
	}
}

func TestPeekPokeDoNotCount(t *testing.T) {
	m := mustNew(t, 1)
	m.Poke(0, 3)
	_ = m.Peek(0)
	if m.Steps() != 0 {
		t.Fatal("Peek/Poke counted as steps")
	}
}

func TestReset(t *testing.T) {
	m := mustNew(t, 2)
	m.Write(0, 5)
	m.Read(1)
	m.Write(1, 6)
	m.Reset()
	if m.Peek(0) != 0 || m.Peek(1) != 0 {
		t.Fatal("Reset did not zero registers")
	}
	if m.Steps() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if m.Size() != 2 {
		t.Fatal("Reset changed size")
	}
}

func TestQuickCASExchange(t *testing.T) {
	// Property: CAS(r, e, v) succeeds iff the register held e, and the
	// register afterwards holds v on success and its old value on
	// failure.
	m := mustNew(t, 1)
	f := func(initial, expected, newVal int64) bool {
		m.Poke(0, initial)
		ok := m.CAS(0, expected, newVal)
		after := m.Peek(0)
		if initial == expected {
			return ok && after == newVal
		}
		return !ok && after == initial
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCASGetMatchesCAS(t *testing.T) {
	a := mustNew(t, 1)
	b := mustNew(t, 1)
	f := func(initial, expected, newVal int64) bool {
		a.Poke(0, initial)
		b.Poke(0, initial)
		okA := a.CAS(0, expected, newVal)
		prior, okB := b.CASGet(0, expected, newVal)
		return okA == okB && prior == initial && a.Peek(0) == b.Peek(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRead(b *testing.B) {
	m, err := New(8)
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = m.Read(0)
	}
	_ = sink
}

func BenchmarkCAS(b *testing.B) {
	m, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m.CAS(0, int64(i), int64(i+1))
	}
}
