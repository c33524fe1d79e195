package machine

import (
	"errors"
	"testing"

	"pwf/internal/sched"
)

// periodGroup is a BatchGroup of k replicas × n processes in which
// every process completes an operation on each period-th step it
// takes, like stepper.
type periodGroup struct {
	k, n, period int
	count        []int // indexed [r*n + pid]
}

func (g *periodGroup) K() int { return g.k }
func (g *periodGroup) N() int { return g.n }

func (g *periodGroup) StepBatch(pids []int32, out []Outcome) {
	for r, pid := range pids {
		c := &g.count[r*g.n+int(pid)]
		*c++
		out[r] = 0
		if *c == g.period {
			out[r] = Completed
			*c = 0
		}
	}
}

func TestBatchSimReplicaBound(t *testing.T) {
	const k, n = 3, 4
	drawer, err := sched.NewUniformBatch(n, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBatchSim(&periodGroup{k: k, n: n, period: 2, count: make([]int, k*n)}, drawer)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Run(400); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{-1, k, k + 7} {
		if w, err := bs.Replica(r); !errors.Is(err, ErrBadReplica) || w != nil {
			t.Errorf("Replica(%d) = %v, %v; want nil, ErrBadReplica", r, w, err)
		}
	}
	for r := 0; r < k; r++ {
		w, err := bs.Replica(r)
		if err != nil {
			t.Fatalf("Replica(%d): %v", r, err)
		}
		// Each process completes every second step it takes, so 400
		// steps complete 200 operations less at most n/2 half-done
		// ones, and the rate reads the shared step clock.
		if got := w.TotalCompletions(); got < 200-n/2 || got > 200 {
			t.Errorf("replica %d: %d completions in 400 steps, want [%d, 200]", r, got, 200-n/2)
		}
		if rate := w.CompletionRate(); rate != float64(w.TotalCompletions())/400 {
			t.Errorf("replica %d: CompletionRate %v, want %d/400", r, rate, w.TotalCompletions())
		}
	}
}
