package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestKindStringRoundTrip checks that every kind has a name of its
// own, that the name is the kind field of the kind's JSON line, and
// that the kind survives the binary encoding.
func TestKindStringRoundTrip(t *testing.T) {
	kinds := []Kind{
		KindSched, KindBegin, KindCAS, KindRetry,
		KindComplete, KindCrash, KindJobStart, KindJobEnd,
	}
	seen := map[string]Kind{}
	for _, k := range kinds {
		name := k.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		b, err := json.Marshal(Event{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		var w struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(b, &w); err != nil || w.Kind != name {
			t.Errorf("%s: JSON line %s carries kind %q (%v)", name, b, w.Kind, err)
		}
		packed, _, err := appendEvent(nil, Event{Kind: k}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, _, err := decodeEvent(packed, 0, 0); err != nil || got.Kind != k {
			t.Errorf("%s: binary round trip gave kind %v (%v)", name, got.Kind, err)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
}

// TestEventJSONRoundTrip pins the JSON line of every kind, byte for
// byte: a decoded trace prints as these lines, and each carries
// exactly the fields its kind defines, whatever else the Event holds. Decoding a
// line back into those fields gives the event again.
func TestEventJSONRoundTrip(t *testing.T) {
	for _, c := range []struct {
		e    Event
		line string
	}{
		{Event{Kind: KindSched, Step: 17, PID: 3}, `{"kind":"sched","step":17,"pid":3}`},
		{Event{Kind: KindSched, Step: 1, PID: 0}, `{"kind":"sched","step":1,"pid":0}`},
		{Event{Kind: KindBegin, Step: 2, PID: 1}, `{"kind":"begin","step":2,"pid":1}`},
		{Event{Kind: KindCAS, Step: 9, PID: 2, OK: true}, `{"kind":"cas","step":9,"pid":2,"ok":true}`},
		{Event{Kind: KindCAS, Step: 10, PID: 2, OK: false}, `{"kind":"cas","step":10,"pid":2,"ok":false}`},
		{Event{Kind: KindRetry, Step: 11, PID: 2, Attempts: 4}, `{"kind":"retry","step":11,"pid":2,"attempts":4}`},
		{Event{Kind: KindComplete, Step: 12, PID: 2, Attempts: 5}, `{"kind":"complete","step":12,"pid":2,"attempts":5}`},
		{Event{Kind: KindComplete, Step: 4, PID: 0}, `{"kind":"complete","step":4,"pid":0,"attempts":0}`},
		{Event{Kind: KindCrash, Step: 0, PID: 7}, `{"kind":"crash","step":0,"pid":7}`},
		{Event{Kind: KindJobStart, Job: 0, Label: "scu-n4"}, `{"kind":"job_start","job":0,"label":"scu-n4"}`},
		{Event{Kind: KindJobEnd, Job: 3, Label: "", ElapsedNS: 123456}, `{"kind":"job_end","job":3,"elapsed_ns":123456}`},
		{Event{Kind: KindJobEnd, Job: -1, Label: "é\"<", ElapsedNS: -7}, `{"kind":"job_end","job":-1,"label":"é\"\u003c","elapsed_ns":-7}`},
	} {
		b, err := json.Marshal(c.e)
		if err != nil {
			t.Fatalf("marshal %+v: %v", c.e, err)
		}
		if string(b) != c.line {
			t.Errorf("marshal %+v:\n got %s\nwant %s", c.e, b, c.line)
		}
		var w struct {
			Kind      string
			Step      uint64
			PID       int
			OK        bool
			Attempts  uint64
			Job       int
			Label     string
			ElapsedNS int64 `json:"elapsed_ns"`
		}
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		back := Event{Kind: c.e.Kind, Step: w.Step, PID: w.PID, OK: w.OK,
			Attempts: w.Attempts, Job: w.Job, Label: w.Label, ElapsedNS: w.ElapsedNS}
		if w.Kind != c.e.Kind.String() || back != c.e {
			t.Errorf("round trip %s: got %q %+v, want %+v", b, w.Kind, back, c.e)
		}
	}
	// Fields another kind defines never reach the line.
	stray := Event{Kind: KindSched, Step: 1, OK: true, Attempts: 9, Job: 4, Label: "x", ElapsedNS: 5}
	if b, _ := json.Marshal(stray); string(b) != `{"kind":"sched","step":1,"pid":0}` {
		t.Errorf("sched event with stray fields marshals to %s", b)
	}
	if _, err := json.Marshal(Event{Kind: 99}); err == nil {
		t.Error("unknown kind marshalled without error")
	}
}

func TestMultiDropsNopAndNil(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, Nop) != nil {
		t.Error("Multi(nil, Nop) != nil")
	}
	var buf bytes.Buffer
	tr := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Registry: NewRegistry()})
	if got := Multi(nil, tr, Nop); got != Recorder(tr) {
		t.Errorf("single live recorder not unwrapped: %T", got)
	}
	m := Multi(tr, NewMetrics(NewRegistry()))
	m.Record(Event{Kind: KindSched, Step: 1, PID: 0})
	tr.Flush()
	if buf.Len() <= traceHeaderLen {
		t.Error("fan-out did not reach the trace writer")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Value 0 → bucket [0,0]; 1 → [1,1]; 2,3 → [2,3]; 1000 → [512,1023].
	for _, v := range []uint64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1006 {
		t.Fatalf("count=%d sum=%d, want 5, 1006", s.Count, s.Sum)
	}
	if got := s.Mean; math.Abs(got-1006.0/5) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 1},
		{Lo: 1, Hi: 1, Count: 1},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 512, Hi: 1023, Count: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d: %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if max := s.Max(); max != 1023 {
		t.Errorf("Max = %d, want 1023", max)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1) // bucket [1,1]
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if q, err := s.Quantile(0.5); err != nil || q != 1 {
		t.Errorf("median = %v, %v, want 1", q, err)
	}
	if q, err := s.Quantile(1); err != nil || q < 1<<19 {
		t.Errorf("q=1 → %v, %v, want inside the top bucket", q, err)
	}
}

// TestHistogramQuantileEdges pins the edge conventions shared with
// stats.Quantile: empty input is an error (not a fabricated value),
// q=0 is the lower edge of the lowest non-empty bucket, q=1 is Max(),
// and NaN or out-of-range q is rejected.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	if _, err := empty.Snapshot().Quantile(0.5); !errors.Is(err, ErrNoObservations) {
		t.Errorf("empty quantile error = %v, want ErrNoObservations", err)
	}

	var h Histogram
	h.Observe(5)  // bucket [4,7]
	h.Observe(40) // bucket [32,63]
	s := h.Snapshot()
	if q, err := s.Quantile(0); err != nil || q != 4 {
		t.Errorf("q=0 → %v, %v, want lower edge 4", q, err)
	}
	if q, err := s.Quantile(1); err != nil || q != float64(s.Max()) {
		t.Errorf("q=1 → %v, %v, want Max()=%d", q, err, s.Max())
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(bad); err == nil {
			t.Errorf("q=%v accepted, want error", bad)
		}
	}
}

func TestHistogramExtremeBucket(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxUint64)
	s := h.Snapshot()
	if len(s.Buckets) != 1 {
		t.Fatalf("buckets: %+v", s.Buckets)
	}
	if s.Buckets[0].Hi != math.MaxUint64 || s.Buckets[0].Lo != 1<<63 {
		t.Errorf("top bucket edges: %+v", s.Buckets[0])
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(3)
	reg.Counter("hits").Add(2) // same counter: get-or-create
	reg.Histogram("lat").Observe(7)
	calls := 0
	reg.Gauge("live", func() uint64 { calls++; return 99 })
	s := reg.Snapshot()
	if s.Counters["hits"] != 5 {
		t.Errorf("hits = %d, want 5", s.Counters["hits"])
	}
	if s.Gauges["live"] != 99 || calls != 1 {
		t.Errorf("gauge = %d (calls %d)", s.Gauges["live"], calls)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Errorf("histogram snapshot: %+v", s.Histograms["lat"])
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output invalid: %v\n%s", err, buf.String())
	}
	if parsed.Counters["hits"] != 5 {
		t.Errorf("JSON round trip lost the counter: %+v", parsed)
	}
}

func TestOpStatsRegister(t *testing.T) {
	reg := NewRegistry()
	var st OpStats
	st.Register(reg, "stack")
	st.ObserveOp(5, 2)
	st.ObserveOp(1, 0)
	s := reg.Snapshot()
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "stack_cas_failures stack_ops stack_retries stack_steps"; got != want {
		t.Errorf("registered %q, want %q", got, want)
	}
	if s.Counters["stack_ops"] != 2 {
		t.Errorf("ops = %d, want 2", s.Counters["stack_ops"])
	}
	if s.Counters["stack_cas_failures"] != 2 {
		t.Errorf("cas_failures = %d, want 2", s.Counters["stack_cas_failures"])
	}
	if s.Histograms["stack_steps"].Sum != 6 {
		t.Errorf("steps sum = %d, want 6", s.Histograms["stack_steps"].Sum)
	}
	if s.Histograms["stack_retries"].Count != 2 {
		t.Errorf("retries count = %d", s.Histograms["stack_retries"].Count)
	}
}

func TestMetricsRecorder(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	for _, e := range []Event{
		{Kind: KindSched, Step: 1, PID: 0},
		{Kind: KindBegin, Step: 1, PID: 0},
		{Kind: KindCAS, Step: 1, PID: 0, OK: false},
		{Kind: KindRetry, Step: 2, PID: 0, Attempts: 1},
		{Kind: KindCAS, Step: 2, PID: 0, OK: true},
		{Kind: KindComplete, Step: 2, PID: 0, Attempts: 2},
		{Kind: KindCrash, Step: 3, PID: 1},
	} {
		m.Record(e)
	}
	s := reg.Snapshot()
	for name, want := range map[string]uint64{
		"sim_sched_steps":   1,
		"sim_op_begins":     1,
		"sim_cas_successes": 1,
		"sim_cas_failures":  1,
		"sim_retries":       1,
		"sim_completions":   1,
		"sim_crashes":       1,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := s.Histograms["sim_cas_attempts_per_op"]; h.Count != 1 || h.Sum != 2 {
		t.Errorf("attempts histogram: %+v", h)
	}
}

// TestConcurrentRecording hammers one shared OpStats, Counter,
// Histogram and Metrics from many goroutines; totals must be exact
// (the whole point of the wait-free fetch-and-add design) and the run
// must be race-clean under -race.
func TestConcurrentRecording(t *testing.T) {
	const (
		workers = 8
		perW    = 10000
	)
	var (
		c   Counter
		h   Histogram
		st  OpStats
		reg = NewRegistry()
		m   = NewMetrics(reg)
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(uint64(i))
				st.ObserveOp(uint64(i%7)+1, uint64(i%3))
				m.Record(Event{Kind: KindSched, Step: uint64(i), PID: w})
				m.Record(Event{Kind: KindComplete, Step: uint64(i), PID: w, Attempts: 1})
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perW
	if c.Load() != total {
		t.Errorf("counter = %d, want %d", c.Load(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if st.Ops.Load() != total {
		t.Errorf("ops = %d, want %d", st.Ops.Load(), total)
	}
	s := reg.Snapshot()
	if s.Counters["sim_sched_steps"] != total || s.Counters["sim_completions"] != total {
		t.Errorf("metrics totals: %+v", s.Counters)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}
