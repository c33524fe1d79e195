package sched

import (
	"fmt"
	"testing"

	"pwf/internal/rng"
)

// BenchmarkSchedDraw times every stochastic scheduler's per-step draw
// over the paper-scale process counts. A few processes are crashed
// first so the crash-mode paths are the ones measured. The draw cost
// should stay flat in n (alias tables, dense active set) or grow
// logarithmically (Fenwick tree). The O(n) samplers these replaced
// (naiveNext) are no longer timed; BENCH_sched.json keeps their last
// measurement.
func BenchmarkSchedDraw(b *testing.B) {
	type drawer interface {
		Scheduler
		Crasher
	}
	for _, n := range []int{16, 256, 1024, 4096} {
		for _, bench := range []struct {
			name  string
			build func(n int) (drawer, error)
		}{
			{"uniform/dense", func(n int) (drawer, error) { return NewUniform(n, rng.New(1)) }},
			{"weighted/alias", func(n int) (drawer, error) { return NewWeighted(rampWeights(n), rng.New(2)) }},
			{"lottery/fenwick", func(n int) (drawer, error) { return NewLottery(rampTickets(n), rng.New(3)) }},
			{"sticky/dense", func(n int) (drawer, error) { return NewSticky(n, 0.8, rng.New(4)) }},
			{"phased/alias", func(n int) (drawer, error) { return NewPhased(n, benchPhases(n), rng.New(5)) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", bench.name, n), func(b *testing.B) {
				s, err := bench.build(n)
				if err != nil {
					b.Fatal(err)
				}
				for pid := 0; pid < n/8; pid++ {
					if err := s.Crash(pid); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Next(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// K = 16 NextBatch rows for the three drawers the default sweep grid
	// batches, lottery at its default of one ticket per process. One op
	// is one batch; ns/lane is its cost per replica.
	const k = 16
	seeds := make([]uint64, k)
	for r := range seeds {
		seeds[r] = uint64(100 + r)
	}
	for _, n := range []int{4, 16, 64} {
		for _, bench := range []struct {
			name  string
			build func(n int) (BatchDrawer, error)
		}{
			{"uniform/batch16", func(n int) (BatchDrawer, error) { return NewUniformBatch(n, seeds) }},
			{"sticky/batch16", func(n int) (BatchDrawer, error) { return NewStickyBatch(n, 0.5, seeds) }},
			{"lottery/batch16", func(n int) (BatchDrawer, error) { return NewLotteryBatch(ones(n), seeds) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", bench.name, n), func(b *testing.B) {
				s, err := bench.build(n)
				if err != nil {
					b.Fatal(err)
				}
				pids := make([]int32, k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.NextBatch(pids); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
			})
		}
	}
}

func ones(n int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = 1
	}
	return ts
}

func rampWeights(n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(i%17 + 1)
	}
	return ws
}

func rampTickets(n int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = i%9 + 1
	}
	return ts
}

func benchPhases(n int) []Phase {
	return []Phase{
		{Weights: rampWeights(n), Steps: 64},
		{Weights: rampWeights(n), Steps: 32},
	}
}
