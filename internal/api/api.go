// Package api defines the canonical, versioned JSON schema for sweep
// jobs and results — one encoding shared by pwfsweep's output and
// -grid files, the pwfserve wire format, and checkpoints, so a grid
// submitted over HTTP is byte-identically the grid a CLI runs
// locally, and results reproduce across both for the same master
// seed.
//
// # Canonical form
//
// The canonical encoding of a value is the compact (single-line)
// encoding produced by Go's encoding/json for the types here: object
// keys appear in struct-field order, no insignificant whitespace,
// wall-clock fields are absent by construction. This package writes
// it with its own append-style encoder (encode.go), which reproduces
// those bytes without reflection, and reads grids with its own
// one-pass decoder (decode.go). encoding/json is the oracle the tests
// hold both to, and still decodes result lines (ReadResults). Two
// runs of the same grid under the same master seed yield
// byte-identical canonical result lines regardless of transport
// (local RunSweep vs. HTTP stream), worker count, or batching.
//
// # Versioning and compatibility policy
//
// Every top-level envelope (Grid, Result, Error) carries a schema
// version field "v". This package speaks exactly Version: decoding
// rejects other versions, and strict decoding (DecodeGrid) also
// rejects unknown, case-variant and duplicate keys at every level and
// trailing data, so typos in hand-written grids fail loudly at
// admission instead of silently running defaults; a null value leaves
// a field at its zero value. Additive, backward-compatible evolution
// (new optional fields) bumps Version; decoders stay pinned to the
// version they were built with. The one deliberate liberality: a
// SchedulerSpec decodes from either its object form or the shared CLI
// grammar string ("sticky:0.9" — see sweep.ParseScheduler), both
// normalizing to the same spec.
package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pwf/internal/sweep"
)

// Version is the schema version this package encodes and accepts.
const Version = 1

// Aliases for the payload types whose JSON shape the sweep package
// owns; their encodings are part of this schema.
type (
	// Workload declares the simulated algorithm of one job.
	Workload = sweep.Workload
	// SchedulerSpec declares the scheduler; JSON accepts the object
	// form or the CLI grammar string.
	SchedulerSpec = sweep.SchedulerSpec
	// Latencies are the measured latency and fairness metrics.
	Latencies = sweep.Latencies
)

// Job is the wire form of one grid point: exactly the declarative
// subset of sweep.Job, without process-local hooks or recorders.
type Job struct {
	Workload Workload `json:"workload"`
	// N is the number of processes.
	N int `json:"n"`
	// Sched selects the scheduler; the zero value is uniform.
	Sched SchedulerSpec `json:"sched"`
	// Steps is the measurement window in system steps.
	Steps uint64 `json:"steps"`
	// WarmupFraction is the warmup before the measurement window as a
	// fraction of Steps, in [0, 1).
	WarmupFraction float64 `json:"warmup_fraction"`
	// Crash fail-stops the highest-id Crash processes before the run.
	Crash int `json:"crash,omitempty"`
	// Exact requests the exact-chain system latency where tractable.
	Exact bool `json:"exact,omitempty"`
	// Label is carried through to the result for presentation.
	Label string `json:"label,omitempty"`
}

// JobFromSweep projects a sweep job onto its wire form.
func JobFromSweep(j sweep.Job) Job {
	return Job{
		Workload:       j.Workload,
		N:              j.N,
		Sched:          j.Sched,
		Steps:          j.Steps,
		WarmupFraction: j.WarmupFraction,
		Crash:          j.Crash,
		Exact:          j.Exact,
		Label:          j.Label,
	}
}

// Sweep converts the wire job into an executable sweep job.
func (j Job) Sweep() sweep.Job {
	return sweep.Job{
		Workload:       j.Workload,
		N:              j.N,
		Sched:          j.Sched,
		Steps:          j.Steps,
		WarmupFraction: j.WarmupFraction,
		Crash:          j.Crash,
		Exact:          j.Exact,
		Label:          j.Label,
	}
}

// Validate reports whether the job is well-formed.
func (j Job) Validate() error { return j.Sweep().Validate() }

// Grid is a sweep submission: a versioned job grid plus the master
// seed that makes its results reproducible.
type Grid struct {
	// V is the schema version; must equal Version.
	V int `json:"v"`
	// Seed is the master seed; job i draws from stream (Seed, i).
	Seed uint64 `json:"seed"`
	// Jobs is the grid, executed logically in order.
	Jobs []Job `json:"jobs"`
}

// ErrVersion marks version-mismatch decode failures; match with
// errors.Is to distinguish them from other validation errors.
var ErrVersion = errors.New("api: unsupported schema version")

// Validate reports whether the grid is well-formed: correct version,
// at least one job, every job valid.
func (g Grid) Validate() error {
	if g.V != Version {
		return fmt.Errorf("%w: grid has v=%d (this build speaks v%d)", ErrVersion, g.V, Version)
	}
	if len(g.Jobs) == 0 {
		return errors.New("api: grid has no jobs")
	}
	for i, j := range g.Jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("api: job %d: %w", i, err)
		}
	}
	return nil
}

// SweepJobs converts the grid's jobs into executable sweep jobs.
func (g Grid) SweepJobs() []sweep.Job {
	jobs := make([]sweep.Job, len(g.Jobs))
	for i, j := range g.Jobs {
		jobs[i] = j.Sweep()
	}
	return jobs
}

// Result is the canonical outcome of one job: the deterministic
// subset of sweep.Result. Wall-clock elapsed time is deliberately
// absent so canonical bytes are byte-identical across runs, hosts,
// and transports.
type Result struct {
	// V is the schema version; must equal Version.
	V int `json:"v"`
	// Index is the job's position in the grid.
	Index int `json:"index"`
	// Label echoes the job's label.
	Label string `json:"label,omitempty"`
	// Job echoes the executed job.
	Job Job `json:"job"`
	// Seed is the derived rng seed the job's scheduler drew from.
	Seed uint64 `json:"seed"`
	// Latencies are the measured latency and fairness metrics.
	Latencies Latencies `json:"latencies"`
	// ProcCompletions is the per-process completion count.
	ProcCompletions []uint64 `json:"proc_completions,omitempty"`
	// Starved lists processes with zero completions.
	Starved []int `json:"starved,omitempty"`
	// Theta is the scheduler's stochasticity threshold θ.
	Theta float64 `json:"theta"`
	// Exact is the exact-chain system latency; valid only when
	// ExactOK.
	Exact float64 `json:"exact,omitempty"`
	// ExactOK reports whether Exact is valid.
	ExactOK bool `json:"exact_ok,omitempty"`
}

// ResultFromSweep projects a sweep result onto its canonical wire
// form, dropping the nondeterministic wall-clock fields.
func ResultFromSweep(r sweep.Result) Result {
	return Result{
		V:               Version,
		Index:           r.Index,
		Label:           r.Label,
		Job:             JobFromSweep(r.Job),
		Seed:            r.Seed,
		Latencies:       r.Latencies,
		ProcCompletions: r.ProcCompletions,
		Starved:         r.Starved,
		Theta:           r.Theta,
		Exact:           r.Exact,
		ExactOK:         r.ExactOK,
	}
}

// Sweep converts the wire result back into the engine's result type —
// the inverse of ResultFromSweep up to the deliberately dropped
// fields: Elapsed is zero (canonical results carry no wall clock) and
// the job loses any process-local hooks it never had on the wire.
// The checkpoint layer uses this to restore completed points.
func (r Result) Sweep() sweep.Result {
	return sweep.Result{
		Index:           r.Index,
		Label:           r.Label,
		Job:             r.Job.Sweep(),
		Seed:            r.Seed,
		Latencies:       r.Latencies,
		ProcCompletions: r.ProcCompletions,
		Starved:         r.Starved,
		Theta:           r.Theta,
		Exact:           r.Exact,
		ExactOK:         r.ExactOK,
	}
}

// Stable error codes carried by Error.Code. Clients match on these,
// never on Message text.
const (
	// CodeInvalidGrid: the submission failed validation or decoding.
	CodeInvalidGrid = "invalid_grid"
	// CodeGridTooLarge: the grid exceeds the server's per-sweep job
	// limit.
	CodeGridTooLarge = "grid_too_large"
	// CodeBodyTooLarge: the request body exceeds the server's byte
	// limit.
	CodeBodyTooLarge = "body_too_large"
	// CodeOverloaded: admission would exceed the server's queued-job
	// bound; retry after Error.RetryAfterSec.
	CodeOverloaded = "overloaded"
	// CodeNotFound: no such sweep (or unknown route).
	CodeNotFound = "not_found"
	// CodeGone: the sweep existed but its results were evicted by the
	// retention window; resuming a cursor on it cannot succeed.
	CodeGone = "gone"
	// CodeUnsupportedVersion: the envelope's "v" is not the version
	// this build speaks.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeInternal: the sweep failed while executing.
	CodeInternal = "internal"
)

// Error is the structured error body every non-2xx pwfserve response
// carries.
type Error struct {
	// V is the schema version.
	V int `json:"v"`
	// Code is a stable, machine-matchable error class; one of the
	// Code* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterSec, when positive, mirrors the Retry-After header of
	// 429 responses.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Error implements the error interface.
func (e Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// MarshalGrid renders the canonical single-line encoding of a grid.
func MarshalGrid(g Grid) ([]byte, error) { return marshal(&g, "") }

// MarshalResult renders the canonical single-line encoding of a
// result.
func MarshalResult(r Result) ([]byte, error) { return marshal(&r, "") }

// MarshalResultLine renders one canonical NDJSON result line: the
// encoding plus a newline, in one exact-length slice.
func MarshalResultLine(r Result) ([]byte, error) { return marshal(&r, "\n") }

// MarshalError renders the canonical single-line encoding of a
// structured error.
func MarshalError(e Error) ([]byte, error) { return marshal(&e, "") }

// DecodeGrid strictly decodes one grid submission from r, which it
// reads to the end: unknown, case-variant and duplicate keys, trailing
// data, wrong versions, and invalid jobs are all errors. A read error
// is wrapped, so errors.As finds it.
func DecodeGrid(r io.Reader) (Grid, error) {
	// A reader that knows its length, as *bytes.Reader does, is read
	// into one allocation.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return Grid{}, fmt.Errorf("api: decode grid: %w", err)
	}
	g, err := decodeGrid(buf.Bytes())
	if err != nil {
		return Grid{}, fmt.Errorf("api: decode grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// WriteResultLine writes one canonical NDJSON result line (the
// encoding plus a newline).
func WriteResultLine(w io.Writer, r Result) error {
	b, err := MarshalResultLine(r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadResults parses an NDJSON result stream (as produced by
// WriteResultLine, pwfsweep, or the pwfserve results endpoint),
// preserving order and rejecting wrong-version lines. Blank lines are
// skipped.
func ReadResults(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var res Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, fmt.Errorf("api: result line %d: %w", line, err)
		}
		if res.V != Version {
			return nil, fmt.Errorf("%w: result line %d has v=%d (this build speaks v%d)",
				ErrVersion, line, res.V, Version)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("api: read results: %w", err)
	}
	return out, nil
}
