package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
)

// sampleEvents covers every kind, zero and large field values, step
// deltas in both directions (interleaved sweep jobs), and labels.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindJobStart, Job: 0, Label: "uniform n=4"},
		{Kind: KindSched, Step: 1, PID: 0},
		{Kind: KindBegin, Step: 1, PID: 0},
		{Kind: KindCAS, Step: 2, PID: 3, OK: false},
		{Kind: KindRetry, Step: 3, PID: 3, Attempts: 1},
		{Kind: KindCAS, Step: 4, PID: 3, OK: true},
		{Kind: KindComplete, Step: 4, PID: 3, Attempts: 2},
		{Kind: KindCrash, Step: 0, PID: 2},
		{Kind: KindSched, Step: math.MaxUint64, PID: 4095},
		{Kind: KindSched, Step: 5, PID: 1}, // huge backward delta
		{Kind: KindJobEnd, Job: 7, Label: "sticky ρ=0.9", ElapsedNS: 123456789},
		{Kind: KindJobEnd, Job: 8, ElapsedNS: -1}, // labels may be empty
	}
}

func encodeBinary(t *testing.T, events []Event, opts BinaryTraceOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if opts.Registry == nil {
		opts.Registry = NewRegistry()
	}
	w := NewBinaryTraceWriter(&buf, opts)
	for _, e := range events {
		w.Record(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

func TestBinaryTraceGoldenHeader(t *testing.T) {
	// The first 8 bytes are the pinned v2 header: magic, version,
	// compression, two reserved zeros. Changing them is a format break
	// and must come with a version bump.
	for _, tc := range []struct {
		comp   Compression
		golden []byte
	}{
		{CompressNone, []byte{'P', 'W', 'F', 'T', 2, 0, 0, 0}},
		{CompressGzip, []byte{'P', 'W', 'F', 'T', 2, 1, 0, 0}},
	} {
		raw := encodeBinary(t, sampleEvents(), BinaryTraceOptions{Compression: tc.comp})
		if len(raw) < traceHeaderLen {
			t.Fatalf("%s: trace shorter than its header: %d bytes", tc.comp, len(raw))
		}
		if !bytes.Equal(raw[:traceHeaderLen], tc.golden) {
			t.Errorf("%s: header % x, want % x", tc.comp, raw[:traceHeaderLen], tc.golden)
		}
	}
}

func TestBinaryTraceGoldenFrame(t *testing.T) {
	// Pin the exact bytes of a tiny uncompressed trace: the framing
	// and per-kind field packing are wire format, not implementation
	// detail.
	events := []Event{
		{Kind: KindSched, Step: 1, PID: 3},
		{Kind: KindSched, Step: 2, PID: 0},
		{Kind: KindCAS, Step: 2, PID: 0, OK: true},
	}
	raw := encodeBinary(t, events, BinaryTraceOptions{})
	golden := []byte{
		'P', 'W', 'F', 'T', 2, 0, 0, 0, // header
		10,      // frame length
		1, 2, 6, // sched: zigzag(+1), zigzag(3)
		1, 2, 0, // sched: zigzag(+1), zigzag(0)
		3, 0, 0, 1, // cas: zigzag(0), zigzag(0), ok=1
	}
	if !bytes.Equal(raw, golden) {
		t.Fatalf("encoded bytes\n got % x\nwant % x", raw, golden)
	}
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressGzip} {
		events := sampleEvents()
		raw := encodeBinary(t, events, BinaryTraceOptions{Compression: comp})
		got, err := ReadBinaryEvents(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: decode: %v", comp, err)
		}
		if len(got) != len(events) {
			t.Fatalf("%s: got %d events, want %d", comp, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Errorf("%s: event %d: got %+v, want %+v", comp, i, got[i], events[i])
			}
		}
	}
}

func TestBinaryTraceRoundTripAcrossFrames(t *testing.T) {
	// A tiny flush threshold forces many frames, exercising the
	// per-frame step-delta reset and empty-frame/boundary handling.
	var events []Event
	for i := 0; i < 5000; i++ {
		events = append(events, Event{Kind: KindSched, Step: uint64(i + 1), PID: i % 7})
	}
	for _, comp := range []Compression{CompressNone, CompressGzip} {
		var buf bytes.Buffer
		w := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Compression: comp, Registry: NewRegistry()})
		w.flushAt = 64
		for _, e := range events {
			w.Record(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", comp, err)
		}
		got, err := ReadBinaryEvents(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", comp, err)
		}
		if len(got) != len(events) {
			t.Fatalf("%s: got %d events, want %d", comp, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("%s: event %d: got %+v, want %+v", comp, i, got[i], events[i])
			}
		}
	}
}

func TestBinaryTraceRejectsWrongVersion(t *testing.T) {
	raw := encodeBinary(t, sampleEvents(), BinaryTraceOptions{})
	raw[4] = 3
	if _, err := ReadBinaryEvents(bytes.NewReader(raw)); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("version 3 trace: got %v, want ErrTraceVersion", err)
	}
	raw[4] = 1
	if _, err := ReadBinaryEvents(bytes.NewReader(raw)); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("version 1 trace: got %v, want ErrTraceVersion", err)
	}
}

func TestBinaryTraceRejectsBadMagic(t *testing.T) {
	raw := encodeBinary(t, sampleEvents(), BinaryTraceOptions{})
	raw[0] = 'X'
	if _, err := ReadBinaryEvents(bytes.NewReader(raw)); !errors.Is(err, ErrNotBinaryTrace) {
		t.Fatalf("bad magic: got %v, want ErrNotBinaryTrace", err)
	}
	// An old NDJSON trace fed to the binary reader is the common case.
	if _, err := ReadBinaryEvents(bytes.NewReader([]byte(`{"kind":"sched","step":1,"pid":0}`))); !errors.Is(err, ErrNotBinaryTrace) {
		t.Fatalf("ndjson input: got %v, want ErrNotBinaryTrace", err)
	}
}

func TestBinaryTraceRejectsNonzeroReserved(t *testing.T) {
	raw := encodeBinary(t, sampleEvents(), BinaryTraceOptions{})
	raw[7] = 1
	if _, err := ReadBinaryEvents(bytes.NewReader(raw)); err == nil {
		t.Fatal("nonzero reserved byte decoded without error")
	}
}

func TestBinaryTraceRejectsTruncation(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressGzip} {
		raw := encodeBinary(t, sampleEvents(), BinaryTraceOptions{Compression: comp})
		// Every proper prefix must either fail or (at an exact frame
		// boundary) yield a clean prefix of the events — never garbage,
		// never a silent full success.
		want := len(sampleEvents())
		for cut := 0; cut < len(raw); cut++ {
			got, err := ReadBinaryEvents(bytes.NewReader(raw[:cut]))
			if err == nil && len(got) >= want {
				t.Fatalf("%s: prefix of %d/%d bytes decoded all %d events without error",
					comp, cut, len(raw), want)
			}
		}
	}
}

func TestBinaryTraceRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'P', 'W', 'F', 'T', 2, 0, 0, 0})
	// A length prefix claiming 1 GiB must be rejected before any
	// allocation of that size.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04}) // uvarint(1<<30)
	if _, err := ReadBinaryEvents(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("1 GiB frame claim decoded without error")
	}
}

func TestBinaryTraceRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'P', 'W', 'F', 'T', 2, 0, 0, 0})
	buf.Write([]byte{1, 99}) // one-byte frame holding kind 99
	if _, err := ReadBinaryEvents(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}

func TestParseCompression(t *testing.T) {
	if c, err := ParseCompression("gzip"); err != nil || c != CompressGzip {
		t.Fatalf("ParseCompression(gzip) = %v, %v", c, err)
	}
	if _, err := ParseCompression("zstd"); err == nil {
		t.Fatal("ParseCompression(zstd) accepted")
	}
}

// TestBinaryTraceCompression pins the size win the format exists for:
// on a realistic event stream the binary trace must be at least 5×
// smaller than the same events as JSON lines (Event.MarshalJSON, once
// the NDJSON trace format), with and without gzip.
func TestBinaryTraceCompression(t *testing.T) {
	var events []Event
	step := uint64(0)
	for i := 0; i < 50000; i++ {
		step++
		pid := i % 64
		events = append(events, Event{Kind: KindSched, Step: step, PID: pid})
		switch i % 5 {
		case 0:
			events = append(events, Event{Kind: KindBegin, Step: step, PID: pid})
		case 1, 2:
			events = append(events, Event{Kind: KindCAS, Step: step, PID: pid, OK: i%2 == 0})
		case 3:
			events = append(events, Event{Kind: KindRetry, Step: step, PID: pid, Attempts: uint64(i % 7)})
		case 4:
			events = append(events, Event{Kind: KindComplete, Step: step, PID: pid, Attempts: uint64(i % 7)})
		}
	}
	lines := jsonLines(t, events)
	for _, comp := range []Compression{CompressNone, CompressGzip} {
		raw := encodeBinary(t, events, BinaryTraceOptions{Compression: comp})
		ratio := float64(len(lines)) / float64(len(raw))
		t.Logf("%s: %d events, JSON lines %d B, binary %d B, ratio %.1fx",
			comp, len(events), len(lines), len(raw), ratio)
		if ratio < 5 {
			t.Errorf("%s: binary trace only %.1fx smaller than JSON lines, want >= 5x", comp, ratio)
		}
	}
}

func TestBinaryTraceWriterMetrics(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	w := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Compression: CompressGzip, Registry: reg})
	for _, e := range sampleEvents() {
		w.Record(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trace_events_written"]; got != uint64(len(sampleEvents())) {
		t.Errorf("trace_events_written = %d, want %d", got, len(sampleEvents()))
	}
	if got := snap.Counters["trace_frames_written"]; got != 1 {
		t.Errorf("trace_frames_written = %d, want 1", got)
	}
	if snap.Counters["trace_raw_bytes"] == 0 {
		t.Error("trace_raw_bytes = 0")
	}
	if got := snap.Counters["trace_bytes_written"]; got != uint64(buf.Len()) {
		t.Errorf("trace_bytes_written = %d, want %d (actual file size)", got, buf.Len())
	}
	if snap.Counters["trace_events_dropped"] != 0 {
		t.Errorf("trace_events_dropped = %d, want 0", snap.Counters["trace_events_dropped"])
	}
	if _, ok := snap.Gauges["trace_compression_ratio_x100"]; !ok {
		t.Error("trace_compression_ratio_x100 gauge not registered")
	}
}

func TestBinaryTraceWriterStickyError(t *testing.T) {
	reg := NewRegistry()
	w := NewBinaryTraceWriter(failWriter{}, BinaryTraceOptions{Registry: reg})
	w.Record(Event{Kind: KindSched, Step: 1, PID: 0})
	if err := w.Flush(); err == nil {
		t.Fatal("flush on a failing writer returned nil")
	}
	for _, e := range sampleEvents() {
		w.Record(e)
	}
	if got := reg.Snapshot().Counters["trace_events_dropped"]; got != uint64(len(sampleEvents())) {
		t.Errorf("trace_events_dropped = %d, want %d", got, len(sampleEvents()))
	}
	if err := w.Flush(); err == nil {
		t.Fatal("error did not stick across Flush calls")
	}
}

// An unknown compression value is refused before any byte is
// written: the header it would write is one ReadBinaryEvents rejects.
// The error sticks, so every Flush reports it and every event counts
// as dropped.
func TestBinaryTraceWriterRejectsUnknownCompression(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	w := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Compression: 7, Registry: reg})
	for _, e := range sampleEvents() {
		w.Record(e)
	}
	for i := 0; i < 2; i++ {
		if err := w.Flush(); err == nil {
			t.Fatalf("flush %d with Compression 7 returned nil", i)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes with an unknown compression, want none: % x", buf.Len(), buf.Bytes())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trace_bytes_written"]; got != 0 {
		t.Errorf("trace_bytes_written = %d, want 0", got)
	}
	if got := snap.Counters["trace_events_dropped"]; got != uint64(len(sampleEvents())) {
		t.Errorf("trace_events_dropped = %d, want %d", got, len(sampleEvents()))
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestTraceWriterConcurrentHammer drives the trace writer from many
// goroutines under -race: events must interleave without corruption,
// with per-goroutine order preserved by the serializing mutex.
func TestTraceWriterConcurrentHammer(t *testing.T) {
	const writers = 8
	const per = 2000
	var buf bytes.Buffer
	w := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Compression: CompressGzip, Registry: NewRegistry()})
	w.flushAt = 512
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Record(Event{Kind: KindSched, Step: uint64(i + 1), PID: pid})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	events, err := ReadBinaryEvents(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(events) != writers*per {
		t.Fatalf("got %d events, want %d", len(events), writers*per)
	}
	next := make([]uint64, writers)
	for _, e := range events {
		if e.PID < 0 || e.PID >= writers {
			t.Fatalf("corrupt pid %d", e.PID)
		}
		if e.Step != next[e.PID]+1 {
			t.Fatalf("pid %d: step %d after %d", e.PID, e.Step, next[e.PID])
		}
		next[e.PID] = e.Step
	}
}

// BenchmarkTrace times the trace format, uncompressed and gzip, on
// one sched-heavy stream of traceBenchEvents events: encode rows
// record one event per op through a BinaryTraceWriter into
// io.Discard, decode rows read the whole encoded stream per op
// through ReadBinaryEvents. Both report the encoded bytes per event.
func BenchmarkTrace(b *testing.B) {
	events := make([]Event, traceBenchEvents)
	for i := range events {
		events[i] = Event{Kind: KindSched, Step: uint64(i), PID: i & 1023}
	}
	for _, f := range []struct {
		name string
		comp Compression
	}{
		{"bin", CompressNone},
		{"bin-gzip", CompressGzip},
	} {
		opts := BinaryTraceOptions{Compression: f.comp, Registry: NewRegistry()}
		var buf bytes.Buffer
		w := NewBinaryTraceWriter(&buf, opts)
		for _, e := range events {
			w.Record(e)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		bytesPerEvent := float64(len(raw)) / float64(len(events))
		b.Run(f.name+"/encode", func(b *testing.B) {
			w := NewBinaryTraceWriter(io.Discard, opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Record(events[i%len(events)])
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bytesPerEvent, "B/event")
		})
		b.Run(f.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := ReadBinaryEvents(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(events) {
					b.Fatalf("decoded %d events, want %d", len(got), len(events))
				}
			}
			b.ReportMetric(bytesPerEvent, "B/event")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}

// traceBenchEvents is the length of BenchmarkTrace's stream.
const traceBenchEvents = 10000

// TestBinaryTraceJSONEquivalence checks that a binary trace decodes
// to events whose JSON lines are byte for byte the lines of the
// events recorded: printing a decoded trace shows the run's events.
func TestBinaryTraceJSONEquivalence(t *testing.T) {
	events := sampleEvents()
	fromBin, err := ReadBinaryEvents(bytes.NewReader(encodeBinary(t, events, BinaryTraceOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := jsonLines(t, events), jsonLines(t, fromBin); !bytes.Equal(a, b) {
		t.Fatalf("decoded stream differs:\nrecorded: %s\ndecoded:  %s", a, b)
	}
}

// jsonLines renders events as JSON lines, one per event.
func jsonLines(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
