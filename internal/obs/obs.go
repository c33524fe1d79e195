// Package obs is the wait-free telemetry layer of the repository: it
// lets every other layer — the discrete-time simulator, the native
// goroutine/atomic structures, and the sweep engine — emit step-level
// events and aggregate hot-path metrics without perturbing the very
// phenomena the paper measures.
//
// The package practices the paper's subject matter. Its counters and
// histograms are built exclusively from atomic fetch-and-add, the
// wait-free primitive of Appendix B: an Observe or Inc on a shared
// metric completes in a bounded number of its own steps regardless of
// contention, so instrumented hot loops in internal/native stay
// wait-free on the metrics path even while the instrumented algorithm
// itself is merely lock-free.
//
// Three layers:
//
//   - Events: a Recorder receives structured step-level Events
//     (scheduling decision, CAS success/failure, retry-loop iteration,
//     operation begin/complete, crash injection, sweep-job lifecycle).
//     The default is no recorder at all; the simulator guards every
//     emission site with a nil check, so the disabled hooks cost one
//     predictable branch per step (benchmarked in bench_test.go).
//   - Metrics: Counter and Histogram are wait-free atomics, safe to
//     call from any goroutine; Registry names them and snapshots to
//     JSON or expvar.
//   - Export: BinaryTraceWriter writes the trace file, compact
//     varint-packed frames with optional per-frame gzip (format v2,
//     see binary.go), and ReadBinaryEvents parses it back for
//     byte-exact replay; Event.MarshalJSON prints a decoded event as
//     one JSON line. Metrics aggregates events into a Registry, or
//     merges the per-job Tallies the simulator counts for it on its
//     fast path, and ServeDebug exposes expvar, pprof and /metrics
//     over HTTP for long sweeps.
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Kind identifies the type of a telemetry event.
type Kind uint8

// The event kinds. Simulator events carry Step and PID; sweep
// lifecycle events carry Job and Label.
const (
	// KindSched is a scheduling decision: at time Step the scheduler
	// picked process PID to take the next shared-memory step.
	KindSched Kind = iota + 1
	// KindBegin marks the first step of a new operation by PID.
	KindBegin
	// KindCAS is a compare-and-swap by PID; OK reports success.
	KindCAS
	// KindRetry marks a retry-loop iteration: PID resumed its
	// operation after a failed CAS. Attempts is the 1-based retry
	// index within the current operation.
	KindRetry
	// KindComplete marks an operation completion by PID. Attempts is
	// the number of CAS attempts the operation performed (0 for
	// CAS-free workloads).
	KindComplete
	// KindCrash marks a job's pre-run fail-stop crash of PID; Step is
	// 0, before the first scheduled step.
	KindCrash
	// KindJobStart marks a sweep job starting; Job is its index.
	KindJobStart
	// KindJobEnd marks a sweep job finishing; ElapsedNS is its wall
	// time.
	KindJobEnd
)

var kindNames = map[Kind]string{
	KindSched:    "sched",
	KindBegin:    "begin",
	KindCAS:      "cas",
	KindRetry:    "retry",
	KindComplete: "complete",
	KindCrash:    "crash",
	KindJobStart: "job_start",
	KindJobEnd:   "job_end",
}

// String implements fmt.Stringer; it returns the name an event's JSON
// line carries.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one structured telemetry event. All fields are scalars (no
// pointers, no heap references), so an Event is passed by value
// without allocating; which fields are meaningful depends on Kind —
// see the Kind constants.
type Event struct {
	Kind Kind
	// Step is the simulator system step (1-based) at which the event
	// occurred.
	Step uint64
	// PID is the simulated process id.
	PID int
	// OK reports CAS success (KindCAS only).
	OK bool
	// Attempts is the CAS-attempt count (KindComplete) or the retry
	// index (KindRetry).
	Attempts uint64
	// Job is the sweep-job index (job lifecycle events only).
	Job int
	// Label is the sweep job's label, if any.
	Label string
	// ElapsedNS is the job wall time in nanoseconds (KindJobEnd).
	ElapsedNS int64
}

// wireEvent is the JSON representation of an Event. Pointer fields
// distinguish "absent" from zero values (pid 0 and step 0 are both
// meaningful), so each line carries exactly the fields its kind
// defines.
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

// MarshalJSON renders the event as one JSON object, emitting only the
// fields its kind defines (see the Kind constants).
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

// Recorder observes telemetry events. Implementations used with the
// sweep engine must be safe for concurrent use: events from different
// jobs arrive on different worker goroutines.
type Recorder interface {
	Record(e Event)
}

// nop is the recorder that discards everything.
type nop struct{}

func (nop) Record(Event) {}

// Nop is the no-op Recorder: it discards every event. Consumers that
// accept a Recorder treat Nop exactly like nil (the simulator
// normalises Nop to nil so that disabled hooks cost a single branch,
// not an interface call).
var Nop Recorder = nop{}

// multi fans one event out to several recorders, in order.
type multi []Recorder

func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// Flush flushes every member that buffers (a trace writer does) and
// joins their errors, so a run that flushes its recorder reaches the
// members of a fan-out too.
func (m multi) Flush() error {
	var errs []error
	for _, r := range m {
		if f, ok := r.(interface{ Flush() error }); ok {
			errs = append(errs, f.Flush())
		}
	}
	return errors.Join(errs...)
}

// Multi combines recorders into one; nil and Nop entries are dropped.
// It returns nil when nothing remains (the disabled state), the sole
// survivor when one remains, and otherwise a fan-out recorder whose
// Flush flushes each member that has one.
func Multi(rs ...Recorder) Recorder {
	var out multi
	for _, r := range rs {
		if r == nil || r == Nop {
			continue
		}
		out = append(out, r)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
