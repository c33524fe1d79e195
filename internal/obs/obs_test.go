package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	kinds := []Kind{
		KindSched, KindBegin, KindCAS, KindRetry,
		KindComplete, KindCrash, KindJobStart, KindJobEnd,
	}
	for _, k := range kinds {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindSched, Step: 17, PID: 3},
		{Kind: KindSched, Step: 1, PID: 0},
		{Kind: KindBegin, Step: 2, PID: 1},
		{Kind: KindCAS, Step: 9, PID: 2, OK: true},
		{Kind: KindCAS, Step: 10, PID: 2, OK: false},
		{Kind: KindRetry, Step: 11, PID: 2, Attempts: 4},
		{Kind: KindComplete, Step: 12, PID: 2, Attempts: 5},
		{Kind: KindCrash, Step: 0, PID: 7},
		{Kind: KindJobStart, Job: 0, Label: "scu-n4"},
		{Kind: KindJobEnd, Job: 3, Label: "", ElapsedNS: 123456},
	}
	for _, e := range events {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %+v: %v", e, err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != e {
			t.Errorf("round trip %s: got %+v, want %+v", data, back, e)
		}
	}
}

func TestTraceRecorderAndReadEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTraceRecorder(&buf)
	want := []Event{
		{Kind: KindJobStart, Job: 0, Label: "demo"},
		{Kind: KindSched, Step: 1, PID: 0},
		{Kind: KindCAS, Step: 1, PID: 0, OK: false},
		{Kind: KindJobEnd, Job: 0, Label: "demo", ElapsedNS: 42},
	}
	for _, e := range want {
		tr.Record(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", n, len(want), buf.String())
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"kind\":\"sched\",\"step\":1,\"pid\":0}\nnot json\n"))
	if err == nil {
		t.Fatal("garbage line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the offending line: %v", err)
	}
}

// TestReadEventsRejectsOversizedLine is a regression test: a line
// longer than the scanner's 4 MiB cap used to surface as a bare
// "token too long" with no position, which was useless against a
// multi-gigabyte trace. It must be a wrapped bufio.ErrTooLong naming
// the offending line number.
func TestReadEventsRejectsOversizedLine(t *testing.T) {
	var in bytes.Buffer
	in.WriteString("{\"kind\":\"sched\",\"step\":1,\"pid\":0}\n")
	in.WriteString("{\"kind\":\"pad\",\"x\":\"")
	in.Write(bytes.Repeat([]byte("a"), 1<<22))
	in.WriteString("\"}\n")
	_, err := ReadEvents(&in)
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the offending line: %v", err)
	}
}

// TestEventUnmarshalEnforcesKindFields is a regression test: the
// decoder used to keep any field on any kind, so {"kind":"cas",
// "elApsed_ns":1} decoded to a cas event with ElapsedNS set, a value
// MarshalJSON cannot write back. A line is accepted exactly when it
// carries the fields its kind defines.
func TestEventUnmarshalEnforcesKindFields(t *testing.T) {
	bad := []string{
		`{"kind":"cas","elApsed_ns":1}`,
		`{"kind":"cas","step":1,"pid":0,"elapsed_ns":1}`,
		`{"kind":"sched","step":1,"pid":0,"ok":true}`,
		`{"kind":"crash","step":0,"pid":1,"label":"x"}`,
		`{"kind":"retry","step":1,"pid":0,"job":2}`,
		`{"kind":"job_start","job":0,"step":1}`,
		`{"kind":"job_end","job":0,"attempts":1}`,
		`{"kind":"sched","step":1,"pid":0,"bogus":1}`,
		`{"kind":"sched"}`,
		`{"kind":"begin","step":1}`,
		`{"kind":"complete","pid":1,"attempts":2}`,
		`{"kind":"job_start","label":"x"}`,
		`{"step":1,"pid":0}`,
	}
	for _, line := range bad {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err == nil {
			t.Errorf("%s accepted as %+v", line, e)
		}
	}
	good := map[string]Event{
		`{"kind":"cas","step":3,"pid":1}`:                       {Kind: KindCAS, Step: 3, PID: 1},
		`{"kind":"complete","step":4,"pid":0}`:                  {Kind: KindComplete, Step: 4},
		`{"kind":"job_start","job":2}`:                          {Kind: KindJobStart, Job: 2},
		`{"kind":"job_end","job":1,"label":"a","elapsed_ns":5}`: {Kind: KindJobEnd, Job: 1, Label: "a", ElapsedNS: 5},
	}
	for line, want := range good {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Errorf("%s rejected: %v", line, err)
		} else if e != want {
			t.Errorf("%s decoded to %+v, want %+v", line, e, want)
		}
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
	tr := NewTraceRecorder(&buf)
	if got := Multi(nil, tr, Nop); got != Recorder(tr) {
		t.Errorf("single live recorder not unwrapped: %T", got)
	}
	m := Multi(tr, NewMetrics(NewRegistry()))
	m.Record(Event{Kind: KindSched, Step: 1, PID: 0})
	tr.Flush()
	if buf.Len() == 0 {
		t.Error("fan-out did not reach the trace recorder")
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
