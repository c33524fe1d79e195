package shmem

import "testing"

// BenchmarkMemoryOps measures one read + write + CAS round. The
// acceptance bar is 0 allocs/op: nothing may escape to the heap
// (TestMemoryOpsZeroAllocs enforces the same bound as a
// plain test so CI fails loudly, not just slowly).
func BenchmarkMemoryOps(b *testing.B) {
	m, err := New(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := m.Read(0)
		m.Write(1, v+1)
		m.CAS(2, v, v+1)
	}
}

func TestMemoryOpsZeroAllocs(t *testing.T) {
	m, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v := m.Read(0)
		m.Write(1, v+1)
		m.CAS(2, v, v+1)
		m.CASGet(3, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("memory ops allocated %v/op, want 0", allocs)
	}
}
