package native

import (
	"errors"
	"math"
	"sync"
	"testing"

	"pwf/internal/obs"
)

func TestCASCounterSequential(t *testing.T) {
	var c CASCounter
	for i := int64(0); i < 100; i++ {
		v, steps := c.Inc()
		if v != i {
			t.Fatalf("Inc fetched %d, want %d", v, i)
		}
		if steps != 2 {
			t.Fatalf("uncontended Inc took %d steps, want 2", steps)
		}
	}
	if c.Load() != 100 {
		t.Fatalf("Load = %d, want 100", c.Load())
	}
}

func TestCASCounterConcurrentExactness(t *testing.T) {
	const (
		workers = 8
		ops     = 5000
	)
	var (
		c  CASCounter
		wg sync.WaitGroup
		mu sync.Mutex
	)
	seen := make(map[int64]bool, workers*ops)
	dup := false
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int64, 0, ops)
			for i := 0; i < ops; i++ {
				v, _ := c.Inc()
				local = append(local, v)
			}
			mu.Lock()
			for _, v := range local {
				if seen[v] {
					dup = true
				}
				seen[v] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if dup {
		t.Fatal("duplicate fetched value")
	}
	if got := c.Load(); got != workers*ops {
		t.Fatalf("final counter %d, want %d", got, workers*ops)
	}
	for v := int64(0); v < workers*ops; v++ {
		if !seen[v] {
			t.Fatalf("value %d never fetched", v)
		}
	}
}

func TestAddCounter(t *testing.T) {
	var c AddCounter
	for i := int64(0); i < 10; i++ {
		v, steps := c.Inc()
		if v != i || steps != 1 {
			t.Fatalf("Inc = (%d, %d), want (%d, 1)", v, steps, i)
		}
	}
}

func TestStackSequentialLIFO(t *testing.T) {
	var s Stack[int]
	if !s.Empty() {
		t.Fatal("new stack not empty")
	}
	for i := 0; i < 10; i++ {
		if steps := s.Push(i); steps != 2 {
			t.Fatalf("uncontended push took %d steps", steps)
		}
	}
	for i := 9; i >= 0; i-- {
		v, ok, steps := s.Pop()
		if !ok || v != i || steps != 3 {
			t.Fatalf("Pop = (%d, %v, %d steps), want (%d, true, 3 steps)", v, ok, steps, i)
		}
	}
	if _, ok, steps := s.Pop(); ok || steps != 1 {
		t.Fatalf("empty pop: ok=%v steps=%d", ok, steps)
	}
}

// TestStackConcurrentConservation hammers the uninstrumented stack with
// interleaved push/pop pairs from 8 workers and checks value
// conservation: nothing lost, nothing duplicated.
func TestStackConcurrentConservation(t *testing.T) {
	stackConservation(t, nil)
}

// TestStackContendedConservation repeats the conservation check on the
// bare retry-loop stack with shared OpStats attached, which must then
// have seen every operation.
func TestStackContendedConservation(t *testing.T) {
	t.Run("bare", func(t *testing.T) {
		stackConservation(t, new(obs.OpStats))
	})
}

func stackConservation(t *testing.T, st *obs.OpStats) {
	t.Helper()
	const (
		workers = 8
		pairs   = 2000
	)
	var (
		s  Stack[int]
		wg sync.WaitGroup
		mu sync.Mutex
	)
	s.Instrument(st)
	popped := make(map[int]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]int, 0, pairs)
			for i := 0; i < pairs; i++ {
				s.Push(w*pairs + i)
				if v, ok, _ := s.Pop(); ok {
					local = append(local, v)
				}
			}
			mu.Lock()
			for _, v := range local {
				popped[v]++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for v, c := range popped {
		if c != 1 {
			t.Fatalf("value %d popped %d times", v, c)
		}
	}
	// Drain the leftovers; total must be workers*pairs.
	total := len(popped)
	drains := 0
	for {
		v, ok, _ := s.Pop()
		drains++
		if !ok {
			break
		}
		if popped[v] != 0 {
			t.Fatalf("leftover %d already popped", v)
		}
		total++
	}
	if total != workers*pairs {
		t.Fatalf("recovered %d values, want %d", total, workers*pairs)
	}
	if st != nil {
		if got, want := st.Ops.Load(), uint64(2*workers*pairs+drains); got != want {
			t.Fatalf("stats recorded %d ops, want %d", got, want)
		}
	}
}

func TestQueueSequentialFIFO(t *testing.T) {
	q := NewQueue[int]()
	if !q.Empty() {
		t.Fatal("new queue not empty")
	}
	for i := 0; i < 10; i++ {
		if steps := q.Enqueue(i); steps != 4 {
			t.Fatalf("uncontended enqueue took %d steps, want 4", steps)
		}
	}
	for i := 0; i < 10; i++ {
		v, ok, steps := q.Dequeue()
		if !ok || v != i || steps != 4 {
			t.Fatalf("Dequeue = (%d, %v, %d steps), want (%d, true, 4 steps)", v, ok, steps, i)
		}
	}
	if _, ok, steps := q.Dequeue(); ok || steps != 3 {
		t.Fatalf("empty dequeue: ok=%v steps=%d", ok, steps)
	}
}

func TestQueueConcurrentConservationAndOrder(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 3000
	)
	q := NewQueue[[2]int]() // (producer, seq)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				q.Enqueue([2]int{p, i})
			}
		}(p)
	}
	var (
		mu       sync.Mutex
		consumed [][][2]int
	)
	consumed = make([][][2]int, consumers)
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			var local [][2]int
			for {
				v, ok, _ := q.Dequeue()
				if ok {
					local = append(local, v)
					continue
				}
				select {
				case <-done:
					// Producers finished; drain once more then stop.
					for {
						v, ok, _ := q.Dequeue()
						if !ok {
							break
						}
						local = append(local, v)
					}
					mu.Lock()
					consumed[c] = local
					mu.Unlock()
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()
	close(done)
	cwg.Wait()

	seen := make(map[[2]int]bool)
	for c, local := range consumed {
		lastSeq := make(map[int]int)
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %v dequeued twice", v)
			}
			seen[v] = true
			if prev, ok := lastSeq[v[0]]; ok && v[1] <= prev {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d",
					c, v[0], v[1], prev)
			}
			lastSeq[v[0]] = v[1]
		}
	}
	if len(seen) != producers*perProd {
		t.Fatalf("consumed %d values, want %d", len(seen), producers*perProd)
	}
}

func TestRecordScheduleValidation(t *testing.T) {
	if _, err := RecordSchedule(0, 10); !errors.Is(err, ErrBadWorkers) {
		t.Errorf("workers=0: %v", err)
	}
	if _, err := RecordSchedule(2, 0); err == nil {
		t.Error("ops=0: nil error")
	}
}

func TestRecordScheduleShares(t *testing.T) {
	const (
		workers = 4
		ops     = 20000
	)
	s, err := RecordSchedule(workers, ops)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != workers {
		t.Fatalf("Workers = %d", s.Workers())
	}
	if s.Len() == 0 {
		t.Fatal("empty analysis window")
	}
	shares := s.StepShares()
	var sum float64
	for _, sh := range shares {
		sum += sh
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// Long-run fairness (Figure 3): every worker gets a share within
	// a loose band around 1/n. The OS scheduler is not uniform at
	// short horizons, so keep the band generous.
	for w, sh := range shares {
		if sh < 0.05 || sh > 0.6 {
			t.Fatalf("worker %d share %v grossly unfair (%v)", w, sh, shares)
		}
	}
}

func TestRecordScheduleTransitions(t *testing.T) {
	s, err := RecordSchedule(3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	tc := s.TransitionCounts()
	var total uint64
	for _, row := range tc {
		for _, c := range row {
			total += c
		}
	}
	if total != uint64(s.Len()-1) {
		t.Fatalf("transition count %d, want %d", total, s.Len()-1)
	}
	if _, err := s.NextStepDistribution(-1); err == nil {
		t.Error("bad worker: nil error")
	}
	dist, err := s.NextStepDistribution(0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestRecordScheduleSingleWorker(t *testing.T) {
	s, err := RecordSchedule(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	shares := s.StepShares()
	if shares[0] != 1 {
		t.Fatalf("single worker share %v, want 1", shares[0])
	}
}

func TestMeasureRateValidation(t *testing.T) {
	if _, err := MeasureRate(0, 1, func(int) Op { return nil }); !errors.Is(err, ErrBadWorkers) {
		t.Errorf("workers=0: %v", err)
	}
	if _, err := MeasureRate(1, 0, func(int) Op { return nil }); err == nil {
		t.Error("ops=0: nil error")
	}
	if _, err := MeasureRate(1, 1, nil); err == nil {
		t.Error("nil factory: nil error")
	}
	if _, err := MeasureRate(1, 1, func(int) Op { return nil }); err == nil {
		t.Error("nil op: nil error")
	}
}

func TestMeasureAddCounterRateIsOne(t *testing.T) {
	res, err := MeasureAddCounterRate(4, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() != 1 {
		t.Fatalf("fetch-and-add rate = %v, want exactly 1", res.Rate())
	}
	if res.Ops != 40000 || res.Steps != 40000 {
		t.Fatalf("ops=%d steps=%d", res.Ops, res.Steps)
	}
}

func TestMeasureCASCounterRateSolo(t *testing.T) {
	res, err := MeasureCASCounterRate(1, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() != 0.5 {
		t.Fatalf("solo CAS counter rate = %v, want 0.5 (read+CAS per op)", res.Rate())
	}
}

func TestMeasureCASCounterRateContended(t *testing.T) {
	res, err := MeasureCASCounterRate(8, 20000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() > 0.5 {
		t.Fatalf("contended rate %v exceeds the uncontended maximum 0.5", res.Rate())
	}
	if res.Rate() <= 0 {
		t.Fatal("zero rate")
	}
}

func TestMeasureStackAndQueueRates(t *testing.T) {
	sres, err := MeasureStackRate(4, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Rate() <= 0 || sres.Rate() > 0.5 {
		t.Fatalf("stack rate %v out of (0, 0.5]", sres.Rate())
	}
	qres, err := MeasureQueueRate(4, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qres.Rate() <= 0 {
		t.Fatal("queue rate zero")
	}
}

func TestRateResultZeroSteps(t *testing.T) {
	var r RateResult
	if r.Rate() != 0 {
		t.Fatal("zero-step result should report rate 0")
	}
}
