package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// wireEvent is the NDJSON representation of an Event. Pointer fields
// distinguish "absent" from zero values (pid 0 and step 0 are both
// meaningful), so a round trip through the wire format is lossless
// for the fields a kind defines.
type wireEvent struct {
	Kind      string  `json:"kind"`
	Step      *uint64 `json:"step,omitempty"`
	PID       *int    `json:"pid,omitempty"`
	OK        *bool   `json:"ok,omitempty"`
	Attempts  *uint64 `json:"attempts,omitempty"`
	Job       *int    `json:"job,omitempty"`
	Label     *string `json:"label,omitempty"`
	ElapsedNS *int64  `json:"elapsed_ns,omitempty"`
}

// wireFields is a set of wireEvent fields, one bit per field in
// wireFieldNames order.
type wireFields uint8

const (
	fStep wireFields = 1 << iota
	fPID
	fOK
	fAttempts
	fJob
	fLabel
	fElapsed
)

var wireFieldNames = [...]string{"step", "pid", "ok", "attempts", "job", "label", "elapsed_ns"}

// kindFields returns the fields kind k defines. Of these, an event
// must carry step and pid, or job; the rest may be absent.
func kindFields(k Kind) wireFields {
	switch k {
	case KindSched, KindBegin, KindCrash:
		return fStep | fPID
	case KindCAS:
		return fStep | fPID | fOK
	case KindRetry, KindComplete:
		return fStep | fPID | fAttempts
	case KindJobStart:
		return fJob | fLabel
	case KindJobEnd:
		return fJob | fLabel | fElapsed
	}
	return 0
}

// present returns the set of fields w carries.
func (w *wireEvent) present() wireFields {
	var f wireFields
	for i, set := range [...]bool{w.Step != nil, w.PID != nil, w.OK != nil,
		w.Attempts != nil, w.Job != nil, w.Label != nil, w.ElapsedNS != nil} {
		if set {
			f |= 1 << i
		}
	}
	return f
}

// first names the lowest field in f.
func (f wireFields) first() string {
	return wireFieldNames[bits.TrailingZeros8(uint8(f))]
}

// MarshalJSON renders the event in the NDJSON wire schema, emitting
// only the fields its kind defines (see the Kind constants).
func (e Event) MarshalJSON() ([]byte, error) {
	w := wireEvent{Kind: e.Kind.String()}
	switch e.Kind {
	case KindSched, KindBegin, KindCrash:
		w.Step, w.PID = &e.Step, &e.PID
	case KindCAS:
		w.Step, w.PID, w.OK = &e.Step, &e.PID, &e.OK
	case KindRetry, KindComplete:
		w.Step, w.PID, w.Attempts = &e.Step, &e.PID, &e.Attempts
	case KindJobStart:
		w.Job = &e.Job
	case KindJobEnd:
		w.Job, w.ElapsedNS = &e.Job, &e.ElapsedNS
	default:
		return nil, fmt.Errorf("obs: marshal unknown event kind %d", e.Kind)
	}
	if e.Label != "" && (e.Kind == KindJobStart || e.Kind == KindJobEnd) {
		w.Label = &e.Label
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses one wire-format event. It accepts the field set
// MarshalJSON writes for the event's kind and nothing else: an
// unknown field, a field the kind does not define, or a missing
// step/pid (job for the job kinds) is an error. A null value counts
// as absent.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w wireEvent
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	k, err := ParseKind(w.Kind)
	if err != nil {
		return err
	}
	defined, has := kindFields(k), w.present()
	if extra := has &^ defined; extra != 0 {
		return fmt.Errorf("obs: %s event has field %q, which its kind does not define", k, extra.first())
	}
	if missing := defined & (fStep | fPID | fJob) &^ has; missing != 0 {
		return fmt.Errorf("obs: %s event is missing field %q", k, missing.first())
	}
	*e = Event{Kind: k}
	if w.Step != nil {
		e.Step = *w.Step
	}
	if w.PID != nil {
		e.PID = *w.PID
	}
	if w.OK != nil {
		e.OK = *w.OK
	}
	if w.Attempts != nil {
		e.Attempts = *w.Attempts
	}
	if w.Job != nil {
		e.Job = *w.Job
	}
	if w.Label != nil {
		e.Label = *w.Label
	}
	if w.ElapsedNS != nil {
		e.ElapsedNS = *w.ElapsedNS
	}
	return nil
}

// TraceRecorder writes every event as one NDJSON line. It buffers
// internally; call Flush (or Close) when the run is over. Record is
// serialized by a mutex, so one TraceRecorder may receive events from
// every worker of a sweep — within a job events appear in simulation
// order, while events of concurrently executing jobs interleave.
type TraceRecorder struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewTraceRecorder returns a recorder writing NDJSON to w.
func NewTraceRecorder(w io.Writer) *TraceRecorder {
	return &TraceRecorder{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Record implements Recorder. The first write or marshal error is
// sticky: subsequent events are dropped and the error is reported by
// Flush.
func (t *TraceRecorder) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(b); err != nil {
		t.err = err
		return
	}
	t.err = t.bw.WriteByte('\n')
}

// Flush drains the buffer and returns the first error encountered by
// any Record or flush so far.
func (t *TraceRecorder) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// DefaultMaxTraceLine is the largest NDJSON line ReadEvents accepts.
// Events written by TraceRecorder are a few hundred bytes, so the
// 4 MiB cap only triggers on corrupt or non-trace input. The limit is
// documented in DESIGN.md ("Trace formats").
const DefaultMaxTraceLine = 1 << 22

// ReadEvents parses an NDJSON event stream (as written by
// TraceRecorder) back into events, preserving order. Blank lines are
// skipped; any malformed line — including one longer than
// DefaultMaxTraceLine — is an error naming its line number.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), DefaultMaxTraceLine)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stops at the offending line without consuming
			// it, so the failure is on the line after the last good one.
			return nil, fmt.Errorf("obs: trace line %d exceeds %d-byte limit: %w",
				line+1, DefaultMaxTraceLine, err)
		}
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return out, nil
}
