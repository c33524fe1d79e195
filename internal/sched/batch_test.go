package sched

import (
	"fmt"
	"testing"

	"pwf/internal/rng"
)

// policyCase builds one scheduler policy both ways: a single replica
// from an rng source (the NewX constructor) and one replica per seed
// (NewXBatch).
type policyCase struct {
	name  string
	one   func(n int, src *rng.Source) (BatchDrawer, error)
	batch func(n int, seeds []uint64) (BatchDrawer, error)
}

func policyCases() []policyCase {
	weights := func(n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(i%5 + 1)
		}
		return ws
	}
	tickets := func(n int) []int {
		ts := make([]int, n)
		for i := range ts {
			ts[i] = i%7 + 1
		}
		return ts
	}
	phases := func(n int) []Phase {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(n - i)
		}
		return []Phase{{Weights: a, Steps: 13}, {Weights: b, Steps: 7}}
	}
	return []policyCase{
		{
			"uniform",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewUniform(n, src) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewUniformBatch(n, seeds) },
		},
		{
			"sticky",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewSticky(n, 0.7, src) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewStickyBatch(n, 0.7, seeds) },
		},
		{
			"weighted",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewWeighted(weights(n), src) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewWeightedBatch(weights(n), seeds) },
		},
		{
			"lottery",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewLottery(tickets(n), src) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewLotteryBatch(tickets(n), seeds) },
		},
		{
			"phased",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewPhased(n, phases(n), src) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewPhasedBatch(n, phases(n), seeds) },
		},
		{
			"roundrobin",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewRoundRobin(n) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewRoundRobinBatch(n, len(seeds)) },
		},
		{
			"adversary",
			func(n int, src *rng.Source) (BatchDrawer, error) { return NewAdversarial(n, SingleOut(1)) },
			func(n int, seeds []uint64) (BatchDrawer, error) {
				return NewAdversarialBatch(n, len(seeds), SingleOut(1))
			},
		},
	}
}

// TestBatchDrawerMatchesScalar runs every policy through the one
// BatchDrawer interface. Its determinism contract: replica r of a
// K-replica scheduler built from seeds[r] yields exactly the pid
// sequence of the single-replica scheduler built with
// rng.New(seeds[r]) — with and without pre-run crashes, and through
// mid-run crashes and ticket transfers — so NextBatch (rng.IntnBatch,
// rng.IntnAt, the ticket table, fenwick.findBatch) agrees with Next
// (Intn, Bernoulli, the table, find).
// Next on the K-replica scheduler fails with ErrBatchLen, and neither
// draw allocates.
func TestBatchDrawerMatchesScalar(t *testing.T) {
	const (
		n     = 23
		k     = 5
		steps = 4000
	)
	seeds := make([]uint64, k)
	for r := range seeds {
		seeds[r] = uint64(1000 + 77*r)
	}
	for _, tc := range policyCases() {
		for _, crashes := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/crash=%d", tc.name, crashes), func(t *testing.T) {
				batched, err := tc.batch(n, seeds)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := batched.Next(); err != ErrBatchLen {
					t.Fatalf("Next with K=%d: %v, want ErrBatchLen", k, err)
				}
				scalars := make([]BatchDrawer, k)
				for r := range scalars {
					if scalars[r], err = tc.one(n, rng.New(seeds[r])); err != nil {
						t.Fatal(err)
					}
				}
				for pid := n - crashes; pid < n; pid++ {
					for _, d := range append([]BatchDrawer{batched}, scalars...) {
						c, ok := d.(Crasher)
						if !ok {
							t.Skipf("%s does not support crashes", tc.name)
						}
						if err := c.Crash(pid); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got, want := batched.Threshold(), scalars[0].Threshold(); got != want {
					t.Fatalf("Threshold = %v, scalar %v", got, want)
				}
				if batched.K() != k || batched.N() != n || scalars[0].K() != 1 {
					t.Fatalf("K/N = %d/%d (scalar K %d), want %d/%d (1)",
						batched.K(), batched.N(), scalars[0].K(), k, n)
				}
				pids := make([]int32, k)
				for step := 0; step < steps; step++ {
					if err := batched.NextBatch(pids); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for r := range scalars {
						want, err := scalars[r].Next()
						if err != nil {
							t.Fatalf("scalar step %d replica %d: %v", step, r, err)
						}
						if int(pids[r]) != want {
							t.Fatalf("step %d replica %d: batched pid %d, scalar %d",
								step, r, pids[r], want)
						}
					}
				}
				if allocs := testing.AllocsPerRun(100, func() { _ = batched.NextBatch(pids) }); allocs != 0 {
					t.Errorf("NextBatch allocated %v/op, want 0", allocs)
				}
				if allocs := testing.AllocsPerRun(100, func() { _, _ = scalars[0].Next() }); allocs != 0 {
					t.Errorf("Next allocated %v/op, want 0", allocs)
				}
			})
		}
	}

	// Mid-run events hit the batch and every scalar replica before the
	// same step. Sticky crashes the previous pick of one replica after
	// another, across the edge values of rho: 0 draws no trial, 2^-53
	// and 1 - 2^-53 are the extreme nonzero integer thresholds.
	for _, rho := range []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53} {
		t.Run(fmt.Sprintf("sticky:%g/mid-run-crash", rho), func(t *testing.T) {
			batched, err := NewStickyBatch(n, rho, seeds)
			if err != nil {
				t.Fatal(err)
			}
			scalars := make([]BatchDrawer, k)
			for r := range scalars {
				if scalars[r], err = NewSticky(n, rho, rng.New(seeds[r])); err != nil {
					t.Fatal(err)
				}
			}
			lockstep(t, batched, scalars, steps, func(step int) {
				if step == 0 || step%500 != 0 {
					return
				}
				victim := int(batched.last[step/500%k])
				crashEverywhere(t, victim, batched, scalars)
			})
		})
	}
	// Lottery transfers and a crash move the active ticket total across
	// holderTableMax both ways, switching both forms between the
	// ticket→holder table and the Fenwick tree.
	t.Run("lottery/mid-run-transfers", func(t *testing.T) {
		batched, err := NewLotteryBatch(ones(n), seeds)
		if err != nil {
			t.Fatal(err)
		}
		scalars := make([]BatchDrawer, k)
		for r := range scalars {
			if scalars[r], err = NewLottery(ones(n), rng.New(seeds[r])); err != nil {
				t.Fatal(err)
			}
		}
		transfer := func(pid, tickets int) {
			for _, d := range append([]BatchDrawer{batched}, scalars...) {
				if err := d.(*Lottery).SetTickets(pid, tickets); err != nil {
					t.Fatal(err)
				}
			}
		}
		lockstep(t, batched, scalars, steps, func(step int) {
			var wantTable bool
			switch step {
			case 800: // 22 + 4,096 tickets
				transfer(3, holderTableMax)
			case 1600: // 22 + 2
				transfer(3, 2)
				wantTable = true
			case 2400: // 23 + 4,086 - 1
				transfer(7, holderTableMax-10)
			case 3200: // 23
				crashEverywhere(t, 7, batched, scalars)
				wantTable = true
			default:
				return
			}
			for _, d := range append([]BatchDrawer{batched}, scalars...) {
				if l := d.(*Lottery); (len(l.holders) != 0) != wantTable {
					t.Fatalf("step %d: active total %d, table in use %v, want %v",
						step, l.activeTotal, len(l.holders) != 0, wantTable)
				}
			}
		})
	})
}

// lockstep draws steps batches from batched and checks replica r of
// every batch against the next draw of scalars[r]. Before each step
// it calls event(step), which may crash processes or transfer tickets
// in all of them alike.
func lockstep(t *testing.T, batched BatchDrawer, scalars []BatchDrawer, steps int, event func(step int)) {
	t.Helper()
	pids := make([]int32, len(scalars))
	for step := 0; step < steps; step++ {
		event(step)
		if err := batched.NextBatch(pids); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for r, s := range scalars {
			want, err := s.Next()
			if err != nil {
				t.Fatalf("scalar step %d replica %d: %v", step, r, err)
			}
			if int(pids[r]) != want {
				t.Fatalf("step %d replica %d: batched pid %d, scalar %d", step, r, pids[r], want)
			}
		}
	}
}

// crashEverywhere crashes pid in the batched drawer and every scalar.
func crashEverywhere(t *testing.T, pid int, batched BatchDrawer, scalars []BatchDrawer) {
	t.Helper()
	for _, d := range append([]BatchDrawer{batched}, scalars...) {
		if err := d.(Crasher).Crash(pid); err != nil {
			t.Fatalf("crash %d: %v", pid, err)
		}
	}
}

// TestBatchDrawerErrors exercises the constructor and draw edges.
func TestBatchDrawerErrors(t *testing.T) {
	if _, err := NewUniformBatch(0, []uint64{1}); err == nil {
		t.Error("NewUniformBatch(0, ...) succeeded")
	}
	if _, err := NewUniformBatch(4, nil); err == nil {
		t.Error("NewUniformBatch with no seeds succeeded")
	}
	if _, err := NewStickyBatch(4, 1.5, []uint64{1}); err == nil {
		t.Error("NewStickyBatch with rho 1.5 succeeded")
	}
	if _, err := NewLotteryBatch([]int{1, 0}, []uint64{1}); err == nil {
		t.Error("NewLotteryBatch with zero ticket succeeded")
	}
	if _, err := NewWeightedBatch([]float64{1, -1}, []uint64{1}); err == nil {
		t.Error("NewWeightedBatch with negative weight succeeded")
	}
	if _, err := NewAdversarialBatch(4, 2, nil); err == nil {
		t.Error("NewAdversarialBatch with nil strategy succeeded")
	}
	u, err := NewUniformBatch(4, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.NextBatch(make([]int32, 3)); err != ErrBatchLen {
		t.Errorf("NextBatch with wrong buffer length: %v, want ErrBatchLen", err)
	}
}
