package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// TraceTailer is a Recorder that retains the newest events of a live
// run in a bounded ring and streams them over HTTP — `tail -f` for a
// trace. Fan it alongside a trace writer with Multi and mount
// Handler on the debug server (ServeDebug's WithTraceTail does both
// route and wiring):
//
//	GET /debug/trace/tail              stream from the oldest retained event
//	GET /debug/trace/tail?cursor=N     resume after the first N events
//
// The stream is NDJSON, one event per line as Event.MarshalJSON
// writes it (the run's trace file stays binary; the tail is for
// humans). The cursor is the absolute number of events the client has
// consumed, mirroring the pwfserve result-stream idiom: a client that
// reconnects with its line count resumes with no duplicates and no
// gaps, as long as the ring still holds that position — a cursor
// older than the ring is refused with 410 Gone rather than silently
// skipping ahead. Every position gets exactly one line: an event the
// wire schema cannot carry gets an error line and ends the stream.
// Events evicted from the ring are counted by trace_tail_evicted.
type TraceTailer struct {
	mu     sync.Mutex
	ring   []Event
	seq    uint64 // total events recorded
	wake   chan struct{}
	closed bool

	mEvicted *Counter
	mStreams *Counter
}

// defaultTailCapacity holds a comfortable multiple of the events a
// tailing client reads per round trip.
const defaultTailCapacity = 8192

// NewTraceTailer returns a tailer retaining the newest capacity
// events (<= 0 selects the 8192-event default). Metrics register on
// reg; nil selects Default.
func NewTraceTailer(capacity int, reg *Registry) *TraceTailer {
	if capacity <= 0 {
		capacity = defaultTailCapacity
	}
	if reg == nil {
		reg = Default
	}
	return &TraceTailer{
		ring:     make([]Event, 0, capacity),
		mEvicted: reg.Counter("trace_tail_evicted"),
		mStreams: reg.Counter("trace_tail_streams"),
	}
}

// Record implements Recorder: append to the ring, evicting the oldest
// event once full, and wake any waiting streams. Waking allocates
// only when a stream is actually parked, so tailing costs the hot
// path one mutexed append.
func (t *TraceTailer) Record(e Event) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.seq%uint64(cap(t.ring))] = e
		t.mEvicted.Inc()
	}
	t.seq++
	if t.wake != nil {
		close(t.wake)
		t.wake = nil
	}
	t.mu.Unlock()
}

// Close marks the trace finished: streams drain what remains and
// terminate instead of waiting for more. Further Records are dropped.
func (t *TraceTailer) Close() {
	t.mu.Lock()
	t.closed = true
	if t.wake != nil {
		close(t.wake)
		t.wake = nil
	}
	t.mu.Unlock()
}

// Seq returns the total number of events recorded so far.
func (t *TraceTailer) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// after returns a copy of the events in [cursor, seq), the channel to
// wait on when the batch is empty, whether the tailer is closed, and
// whether cursor has fallen off the ring (a gap: the caller must not
// pretend continuity).
func (t *TraceTailer) after(cursor uint64) (batch []Event, wake <-chan struct{}, closed, expired bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	oldest := t.seq - uint64(len(t.ring))
	if cursor < oldest {
		return nil, nil, t.closed, true
	}
	if n := t.seq - cursor; n > 0 {
		batch = make([]Event, 0, n)
		for s := cursor; s < t.seq; s++ {
			batch = append(batch, t.ring[s%uint64(cap(t.ring))])
		}
	}
	if len(batch) == 0 && !t.closed {
		if t.wake == nil {
			t.wake = make(chan struct{})
		}
		wake = t.wake
	}
	return batch, wake, t.closed, false
}

// bounds returns the retained window [oldest, seq).
func (t *TraceTailer) bounds() (oldest, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - uint64(len(t.ring)), t.seq
}

// Handler returns the HTTP handler streaming the tail as NDJSON with
// cursor resume; mount it wherever the debug mux lives (ServeDebug
// mounts it at /debug/trace/tail).
func (t *TraceTailer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cursorStr := r.URL.Query().Get("cursor")
		if cursorStr == "" {
			cursorStr = r.Header.Get("Last-Event-ID")
		}
		oldest, seq := t.bounds()
		cursor := oldest
		if cursorStr != "" {
			n, err := strconv.ParseUint(cursorStr, 10, 64)
			if err != nil || n > seq {
				http.Error(w, fmt.Sprintf("cursor %q out of [0, %d]", cursorStr, seq),
					http.StatusBadRequest)
				return
			}
			if n < oldest {
				http.Error(w, fmt.Sprintf("cursor %d expired; oldest retained event is %d", n, oldest),
					http.StatusGone)
				return
			}
			cursor = n
		}

		t.mStreams.Inc()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("X-Trace-Cursor", strconv.FormatUint(cursor, 10))
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			// Confirm the connection even before the first event lands.
			flusher.Flush()
		}

		for {
			batch, wake, closed, expired := t.after(cursor)
			if expired {
				// The client stalled past the ring: terminate with an
				// explicit gap marker instead of resuming with a hole.
				writeTailError(w, fmt.Sprintf("trace tail cursor %d expired", cursor))
				return
			}
			for _, e := range batch {
				b, err := json.Marshal(e)
				if err != nil {
					// An event the wire schema cannot carry takes its
					// position's line and ends the stream, so a client
					// resuming at its line count neither repeats nor
					// skips a served event.
					writeTailError(w, fmt.Sprintf("trace tail event %d: %v", cursor, err))
					return
				}
				b = append(b, '\n')
				if _, err := w.Write(b); err != nil {
					return
				}
				cursor++
			}
			if flusher != nil && len(batch) > 0 {
				flusher.Flush()
			}
			if len(batch) > 0 {
				continue // recheck for events recorded while writing
			}
			if closed {
				return
			}
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			}
		}
	})
}

// wireEvent is the JSON representation of an Event on the tail.
// Pointer fields distinguish "absent" from zero values (pid 0 and
// step 0 are both meaningful), so each line carries exactly the
// fields its kind defines.
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

// MarshalJSON renders the event in the tail's wire schema, emitting
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

// writeTailError ends a tail stream with an in-band error line.
func writeTailError(w io.Writer, msg string) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}
