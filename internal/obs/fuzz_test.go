package obs

import (
	"bytes"
	"testing"
)

// FuzzReadBinaryTrace throws arbitrary bytes at the v2 frame decoder.
// Two properties: the decoder never panics or over-allocates (the
// frame/label bounds hold under adversarial length prefixes), and any
// input it accepts re-encodes to a stream that decodes to the same
// events — decode ∘ encode ∘ decode is the identity on valid traces.
func FuzzReadBinaryTrace(f *testing.F) {
	seed := func(events []Event, comp Compression) {
		var buf bytes.Buffer
		w := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Compression: comp, Registry: NewRegistry()})
		for _, e := range events {
			w.Record(e)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(sampleEventsForFuzz(), CompressNone)
	seed(sampleEventsForFuzz(), CompressGzip)
	f.Add([]byte{'P', 'W', 'F', 'T', 2, 0, 0, 0})                         // empty trace
	f.Add([]byte{'P', 'W', 'F', 'T', 3, 0, 0, 0, 1, 1})                   // future version
	f.Add([]byte{'P', 'W', 'F', 'T', 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // huge length claim
	f.Add([]byte(`{"kind":"sched","step":1,"pid":0}`))                    // ndjson

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadBinaryEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewBinaryTraceWriter(&buf, BinaryTraceOptions{Registry: NewRegistry()})
		for _, e := range events {
			w.Record(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		again, err := ReadBinaryEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}

// sampleEventsForFuzz mirrors sampleEvents but lives here so the fuzz
// target is self-contained when run with -run=^$ -fuzz.
func sampleEventsForFuzz() []Event {
	return []Event{
		{Kind: KindJobStart, Job: 3, Label: "uniform n=4"},
		{Kind: KindSched, Step: 1, PID: 0},
		{Kind: KindCAS, Step: 2, PID: 3, OK: true},
		{Kind: KindRetry, Step: 3, PID: 3, Attempts: 1},
		{Kind: KindComplete, Step: 4, PID: 3, Attempts: 2},
		{Kind: KindCrash, Step: 5, PID: 2},
		{Kind: KindJobEnd, Job: 3, Label: "uniform n=4", ElapsedNS: 42},
	}
}
