package pwf

import (
	"fmt"
	"io"

	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// Telemetry layer (package obs) — re-exported as the supported public
// surface. The layer is wait-free by construction: counters and
// histograms are pure fetch-and-add, the primitive the paper's
// Appendix B measures, so recording from instrumented hot loops never
// blocks and never downgrades the progress property under study.
type (
	// Recorder observes structured telemetry events; implementations
	// shared across sweep workers must be safe for concurrent use.
	Recorder = obs.Recorder
	// Event is one telemetry event (scheduling decision, CAS outcome,
	// retry, operation boundary, crash, job lifecycle).
	Event = obs.Event
	// EventKind discriminates Event payloads.
	EventKind = obs.Kind
	// Registry names wait-free counters, histograms, and gauges, and
	// snapshots them to JSON or expvar.
	Registry = obs.Registry
	// TraceWriter records events to a trace file in binary format v2:
	// a Recorder with a final Flush.
	TraceWriter = obs.BinaryTraceWriter
	// TraceCompression selects per-frame compression of traces.
	TraceCompression = obs.Compression
	// MetricsRecorder aggregates simulator steps into registry metrics
	// (sim_* counters and the CAS-attempts histogram). Used as the
	// whole recorder it is counted on the simulator's fast path,
	// replica-batched sweeps included.
	MetricsRecorder = obs.Metrics
	// OpStats is shared wait-free per-operation telemetry for the
	// native structures (steps, retries, CAS failures).
	OpStats = obs.OpStats
)

// Event kinds, re-exported.
const (
	EventSched    = obs.KindSched
	EventBegin    = obs.KindBegin
	EventCAS      = obs.KindCAS
	EventRetry    = obs.KindRetry
	EventComplete = obs.KindComplete
	EventCrash    = obs.KindCrash
	EventJobStart = obs.KindJobStart
	EventJobEnd   = obs.KindJobEnd
)

// Trace compressions, re-exported; these are the values of the CLIs'
// -trace-compress flag.
const (
	TraceCompressNone = obs.CompressNone
	TraceCompressGzip = obs.CompressGzip
)

// Trace format v2 sentinel errors, re-exported; check with errors.Is.
var (
	// ErrTraceVersion reports a binary trace whose version this
	// build does not speak.
	ErrTraceVersion = obs.ErrTraceVersion
	// ErrNotBinaryTrace reports input without the binary trace magic.
	ErrNotBinaryTrace = obs.ErrNotBinaryTrace
)

// ParseTraceCompression parses a -trace-compress flag value ("none",
// "gzip").
func ParseTraceCompression(s string) (TraceCompression, error) { return obs.ParseCompression(s) }

// DefaultRegistry returns the process-wide metrics registry. The
// sweep engine's chain cache publishes its hit/miss gauges here, and
// the CLIs snapshot it for -metrics.
func DefaultRegistry() *Registry { return obs.Default }

// NewTraceWriter returns a Recorder writing a binary (v2) trace to w
// with the given per-frame compression; call Flush when the run is
// over, and parse the trace back with ReadTraceEvents. An unknown
// compression is an error, and nothing is written to w.
func NewTraceWriter(w io.Writer, comp TraceCompression) (*TraceWriter, error) {
	if comp != TraceCompressNone && comp != TraceCompressGzip {
		return nil, fmt.Errorf("pwf: unknown trace compression %d", comp)
	}
	return obs.NewBinaryTraceWriter(w, obs.BinaryTraceOptions{Compression: comp}), nil
}

// NewMetricsRecorder returns a Recorder aggregating simulator events
// into reg (nil selects DefaultRegistry).
func NewMetricsRecorder(reg *Registry) *MetricsRecorder {
	if reg == nil {
		reg = obs.Default
	}
	return obs.NewMetrics(reg)
}

// MultiRecorder fans events out to several recorders; nil entries are
// dropped and nil is returned when none remain. Flushing the result
// (as Run and RunSweep do) flushes every member that has a Flush.
func MultiRecorder(rs ...Recorder) Recorder { return obs.Multi(rs...) }

// ReadTraceEvents parses a binary (v2) trace back into events,
// preserving order. Input without the v2 magic is ErrNotBinaryTrace,
// another version ErrTraceVersion.
func ReadTraceEvents(r io.Reader) ([]Event, error) { return obs.ReadBinaryEvents(r) }

// ServeDebug starts an HTTP listener on addr exposing /metrics (the
// registry snapshot), /debug/vars (expvar) and /debug/pprof. It
// returns the bound address and a stop function.
func ServeDebug(addr string, reg *Registry) (bound string, stop func() error, err error) {
	if reg == nil {
		reg = obs.Default
	}
	return obs.ServeDebug(addr, reg)
}

// ChainCache memoizes exact-chain analyses; see SweepConfig.Cache.
type ChainCache = sweep.ChainCache
