package native

import (
	"sync"
	"testing"

	"pwf/internal/obs"
)

// TestRateMeasurementsRecordOpStats drives every instrumented
// structure through its Measure*Rate entry point with a shared
// OpStats and checks the wait-free totals line up with the
// measurement's own accounting. Run under -race this doubles as the
// proof that concurrent recording into the shared histograms is safe.
func TestRateMeasurementsRecordOpStats(t *testing.T) {
	const (
		workers = 4
		ops     = 5000
	)
	measures := map[string]func(w, o int, st *obs.OpStats) (RateResult, error){
		"counter": MeasureCASCounterRate,
		"add":     MeasureAddCounterRate,
		"stack":   MeasureStackRate,
		"queue":   MeasureQueueRate,
	}
	for name, measure := range measures {
		name, measure := name, measure
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var st obs.OpStats
			res, err := measure(workers, ops, &st)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Ops.Load(); got != res.Ops {
				t.Errorf("ops recorded %d, measured %d", got, res.Ops)
			}
			if got := st.Steps.Sum(); got != res.Steps {
				t.Errorf("steps recorded %d, measured %d", got, res.Steps)
			}
			if st.Retries.Count() != res.Ops {
				t.Errorf("retry histogram has %d entries, want one per op (%d)",
					st.Retries.Count(), res.Ops)
			}
			if name == "add" && st.CASFailures.Load() != 0 {
				t.Errorf("wait-free add counter recorded %d CAS failures",
					st.CASFailures.Load())
			}
		})
	}
}

// TestSharedOpStatsAcrossStructures records into one OpStats from
// goroutines hammering two different structures at once — the
// registry-level aggregation case.
func TestSharedOpStatsAcrossStructures(t *testing.T) {
	const perWorker = 2000
	var st obs.OpStats
	var s Stack[int]
	var c CASCounter
	s.Instrument(&st)
	c.Instrument(&st)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w%2 == 0 {
					s.Push(i)
				} else {
					c.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := st.Ops.Load(); got != 4*perWorker {
		t.Errorf("ops = %d, want %d", got, 4*perWorker)
	}
	if st.Steps.Sum() < 4*perWorker {
		t.Errorf("steps sum %d below op count", st.Steps.Sum())
	}
}
