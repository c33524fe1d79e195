// Package server implements the pwfserve daemon: sweep execution as a
// service over the versioned internal/api wire schema.
//
// The HTTP surface (all JSON bodies are canonical api encodings):
//
//	POST /v1/sweeps              submit an api.Grid; 202 + sweep id
//	GET  /v1/sweeps/{id}         status: queued/running/done/failed
//	GET  /v1/sweeps/{id}/results canonical NDJSON result stream
//	GET  /metrics                obs registry snapshot as JSON
//	GET  /healthz                liveness probe
//	/debug/vars, /debug/pprof/   standard Go debug surface
//
// Determinism carries over the wire: a grid accepted here produces
// result lines byte-identical to running the same grid and master
// seed locally through sweep.Run and api.ResultFromSweep, because job
// seeds derive from (seed, index) alone and the canonical encoding
// excludes wall-clock fields.
//
// Admission is bounded: a submission whose jobs would push the number
// of queued-but-unfinished jobs past MaxQueuedJobs is rejected with
// 429, a Retry-After header, and an api.Error body (code
// "overloaded") instead of queueing without bound. Oversized grids
// and bodies are rejected with 413 before any work is queued.
//
// Execution batches compatible jobs: every accepted sweep runs with
// sweep.Config.BatchFamilies so same-family jobs dispatch adjacently
// and share ChainCache entries, and with sweep.Config.ReplicaBatch so
// same-shape jobs step together in one struct-of-arrays simulator —
// pure execution optimizations that provably cannot change result
// bytes.
//
// The result store is compact and bounded: a finished sweep keeps its
// result lines deflated, and a stream that reads them inflates a copy.
// Finished sweeps are evicted after Config.Retention (default 1 hour);
// evictions are visible in /metrics as server_sweeps_evicted. Requests
// for an evicted id get 410 Gone (code "gone") rather than 404, so a
// client resuming a result stream by cursor can tell "expired" from
// "never existed". The distinction is best-effort across restarts: a
// fresh process only remembers evictions it performed itself.
//
// With Config.CheckpointDir set, accepted sweeps survive restarts:
// every submission is persisted as one crash-safe checkpoint (<id>.ckpt,
// format internal/checkpoint) whose header holds the grid and to which
// every completed point appends. A restarted server rebuilds each
// persisted sweep from its header and re-enqueues it; its checkpointed
// points are restored — replayed through the result stream rather than
// recomputed — so existing cursors remain valid and the streamed bytes
// are identical to an uninterrupted serve. Eviction deletes the file.
package server

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pwf/internal/api"
	"pwf/internal/checkpoint"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// Config parameterizes a Server. The zero value selects the defaults
// noted on each field.
type Config struct {
	// MaxGridJobs bounds the jobs of one submission; larger grids are
	// rejected with 413 (grid_too_large). Default 4096.
	MaxGridJobs int
	// MaxQueuedJobs bounds the queued-but-unfinished jobs across all
	// accepted sweeps; submissions that would exceed it are rejected
	// with 429 (overloaded). Default 16384.
	MaxQueuedJobs int
	// MaxBodyBytes bounds the request body; larger bodies are rejected
	// with 413 (body_too_large). Default 8 MiB.
	MaxBodyBytes int64
	// Workers bounds each sweep's worker pool; 0 selects GOMAXPROCS.
	Workers int
	// RetryAfter is the backoff advertised on 429 responses (header
	// and api.Error.RetryAfterSec). Default 1s.
	RetryAfter time.Duration
	// Retention bounds how long finished (done or failed) sweeps stay
	// queryable: a janitor evicts them from the in-memory store once
	// they have been finished for longer than this window, so a
	// long-running daemon's memory is bounded by its traffic rate
	// rather than its lifetime. 0 selects the default (1 hour);
	// negative disables eviction (the pre-retention behavior).
	// Evictions are counted by the server_sweeps_evicted metric.
	Retention time.Duration
	// CheckpointDir, when non-empty, persists sweep state there so
	// accepted sweeps survive process restarts: one <id>.ckpt
	// checkpoint per submission, holding its grid and its completed
	// points. A new Server re-enqueues everything the directory holds.
	// Empty (the default) keeps all state in memory.
	CheckpointDir string
	// Registry receives the server's metrics; nil creates a private
	// registry (exposed at /metrics either way).
	Registry *obs.Registry
	// Cache memoizes exact-chain constructions across sweeps; nil
	// selects the process-wide sweep.DefaultCache.
	Cache *sweep.ChainCache
	// Log, when non-nil, receives printf-style operational notices —
	// currently the once-per-reason replica-batching fallback lines.
	// Nil discards them.
	Log func(format string, args ...any)

	// gate, when non-nil, stalls the executor before each sweep until
	// a receive succeeds; tests use it to back the queue up
	// deterministically.
	gate chan struct{}
}

const (
	defaultMaxGridJobs   = 4096
	defaultMaxQueuedJobs = 16384
	defaultMaxBodyBytes  = 8 << 20
	defaultRetryAfter    = time.Second
	defaultRetention     = time.Hour

	// replicaBatchWidth is the replica-batch width sweeps execute
	// with. Wire grids routinely repeat one shape across many seeds;
	// the batched core runs up to this many same-shape jobs per
	// simulator loop with byte-identical results.
	replicaBatchWidth = 16
)

// sweepStatus is the lifecycle of one accepted sweep.
type sweepStatus string

const (
	statusQueued  sweepStatus = "queued"
	statusRunning sweepStatus = "running"
	statusDone    sweepStatus = "done"
	statusFailed  sweepStatus = "failed"
)

// sweepState holds what the status and results endpoints read of one
// accepted sweep: its job count, its result lines packed in input
// order, and a watermark/broadcast pair streams wait on. The grid is
// not kept: it travels to the executor with the queued sweep and is
// released once the engine has run it.
//
// While the sweep runs, out holds lines[:watermark] back to back and
// ends[i] is the end of line i in out. Appends only write past len(out),
// so a slice of out taken under mu stays valid, unchanged, after mu is
// released. Lines that complete before the watermark reaches them
// (family batching reorders execution) wait in staged until it does.
// Once the sweep has finished, the executor deflates out into z and
// drops out; ends keeps indexing the inflated bytes. A finished sweep
// has no staged slice.
type sweepState struct {
	id   string
	jobs int

	mu         sync.Mutex
	status     sweepStatus
	out        []byte   // canonical NDJSON lines [0, watermark), in input order; nil once deflated
	z          []byte   // out deflated, once the sweep has finished; nil before
	ends       []int    // ends[i] is the end offset of line i in out, or in z inflated
	staged     [][]byte // lines completed past the watermark, by job index; nil unless running
	watermark  int      // lines [0, watermark) are packed and streamable
	done       int      // completed jobs (any order)
	failure    *api.Error
	finishedAt time.Time     // when a finished sweep's lines were deflated; zero before
	wake       chan struct{} // closed and replaced on every change
}

// queuedSweep is a sweep waiting for the executor, with the grid it
// runs.
type queuedSweep struct {
	st   *sweepState
	grid api.Grid
}

// snapshot returns the fields status responses need, consistently.
func (st *sweepState) snapshot() (status sweepStatus, done int, failure *api.Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.status, st.done, st.failure
}

// broadcastLocked wakes every stream waiting on st. st.mu must be held.
func (st *sweepState) broadcastLocked() {
	close(st.wake)
	st.wake = make(chan struct{})
}

// publish records job i's line and packs every line the watermark
// now reaches. It returns the number of bytes packed.
func (st *sweepState) publish(i int, line []byte) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.staged[i] = line
	st.done++
	before := len(st.out)
	for st.watermark < st.jobs && st.staged[st.watermark] != nil {
		st.out = append(st.out, st.staged[st.watermark]...)
		st.ends = append(st.ends, len(st.out))
		st.staged[st.watermark] = nil
		st.watermark++
	}
	st.broadcastLocked()
	return len(st.out) - before
}

// Server executes sweeps submitted over HTTP. It implements
// http.Handler; Close stops the executor and aborts the running sweep
// at its next job boundary.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *sweep.ChainCache
	mux   *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	sweeps     map[string]*sweepState
	gone       map[string]struct{} // ids evicted by this process: 410, not 404
	queue      chan queuedSweep
	queuedJobs int // admitted but unfinished jobs, bounded by MaxQueuedJobs
	nextID     uint64

	// retained is the byte count the store holds for every stored
	// sweep, packed while it runs and deflated once it finishes: the
	// server_retained_bytes gauge.
	retained atomic.Int64

	// gate mirrors Config.gate; read only by the executor.
	gate chan struct{}
	// zw and zbuf deflate finished sweeps; owned by the executor, which
	// reuses them for every sweep. zw is created on first use.
	zw   *flate.Writer
	zbuf bytes.Buffer

	mSweepsAccepted   *obs.Counter
	mSweepsRestored   *obs.Counter
	mSweepsEvicted    *obs.Counter
	mRejectedOverload *obs.Counter
	mRejectedInvalid  *obs.Counter
	mRejectedTooLarge *obs.Counter
	mJobsCompleted    *obs.Counter
	mJobsCoalesced    *obs.Counter
	mStreamsOpened    *obs.Counter
	mStreamsDropped   *obs.Counter
	hJobLatency       *obs.Histogram
}

// New returns a started server: its executor goroutine is running and
// it is ready to serve HTTP. Call Close to stop it.
func New(cfg Config) *Server {
	if cfg.MaxGridJobs <= 0 {
		cfg.MaxGridJobs = defaultMaxGridJobs
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = defaultMaxQueuedJobs
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.Retention == 0 {
		cfg.Retention = defaultRetention
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cache := cfg.Cache
	if cache == nil {
		cache = sweep.DefaultCache
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		cache:  cache,
		ctx:    ctx,
		cancel: cancel,
		gate:   cfg.gate,
		sweeps: make(map[string]*sweepState),
		gone:   make(map[string]struct{}),
		// Admission bounds total queued jobs at MaxQueuedJobs and every
		// sweep has >= 1 job, so the queue can never hold more sweeps
		// than that: sends below never block.
		queue: make(chan queuedSweep, cfg.MaxQueuedJobs),

		mSweepsAccepted:   reg.Counter("server_sweeps_accepted"),
		mSweepsRestored:   reg.Counter("server_sweeps_restored"),
		mSweepsEvicted:    reg.Counter("server_sweeps_evicted"),
		mRejectedOverload: reg.Counter("server_sweeps_rejected_overload"),
		mRejectedInvalid:  reg.Counter("server_sweeps_rejected_invalid"),
		mRejectedTooLarge: reg.Counter("server_sweeps_rejected_too_large"),
		mJobsCompleted:    reg.Counter("server_jobs_completed"),
		mJobsCoalesced:    reg.Counter("server_jobs_coalesced"),
		mStreamsOpened:    reg.Counter("server_streams_opened"),
		mStreamsDropped:   reg.Counter("server_streams_disconnected"),
		hJobLatency:       reg.Histogram("server_job_latency_ns"),
	}
	reg.Gauge("server_queue_depth", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.queuedJobs)
	})
	reg.Gauge("server_retained_bytes", func() uint64 { return uint64(s.retained.Load()) })
	cache.Publish(reg, "chain_cache")

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, api.Error{
			V: api.Version, Code: api.CodeNotFound,
			Message: fmt.Sprintf("no route %s %s", r.Method, r.URL.Path),
		})
	})

	if cfg.CheckpointDir != "" {
		s.restoreFromDir()
	}
	s.wg.Add(1)
	go s.executor()
	if cfg.Retention > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

// ckptPath names a sweep's persisted file.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".ckpt")
}

// restoreFromDir re-enqueues every sweep CheckpointDir holds, in
// original submission order, and advances the id counter past them.
// Checkpointed points replay instead of recomputing when the executor
// reaches each sweep, so a restart is invisible to result bytes and
// cursors. A checkpoint that no longer loads is surfaced as a failed
// sweep under its id — queryable, evicted on schedule — rather than
// silently dropped or deleted.
func (s *Server) restoreFromDir() {
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".ckpt"); ok {
			ids = append(ids, id)
		}
	}
	// Original submission order: ids are s1, s2, ... from the previous
	// lifetime; numeric order is submission order.
	sort.Slice(ids, func(i, j int) bool { return idNum(ids[i]) < idNum(ids[j]) })
	for _, id := range ids {
		if n := idNum(id); n > s.nextID {
			s.nextID = n
		}
		meta, err := checkpoint.ReadHeader(s.ckptPath(id))
		if err != nil {
			failed := &sweepState{
				id:     id,
				status: statusFailed,
				failure: &api.Error{V: api.Version, Code: api.CodeInternal,
					Message: fmt.Sprintf("restore: %v", err)},
				finishedAt: time.Now(),
				wake:       make(chan struct{}),
			}
			s.sweeps[id] = failed
			continue
		}
		st := &sweepState{
			id:     id,
			jobs:   len(meta.Grid.Jobs),
			status: statusQueued,
			wake:   make(chan struct{}),
		}
		s.sweeps[id] = st
		s.queuedJobs += st.jobs
		s.mSweepsRestored.Inc()
		s.queue <- queuedSweep{st, meta.Grid}
	}
}

// idNum extracts the numeric part of a sweep id ("s42" -> 42); 0 for
// foreign names.
func idNum(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64)
	return n
}

// janitor periodically evicts finished sweeps older than the
// retention window. Open result streams keep their *sweepState and
// drain unaffected; only new lookups of the id see 410.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := s.cfg.Retention / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Minute {
		tick = time.Minute
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired removes every sweep finished before now-Retention.
// Evicted ids are remembered (a few bytes each) so later lookups —
// typically a client resuming a result stream by cursor — get a clean
// 410 Gone instead of an indistinguishable-from-typo 404; persisted
// state is deleted alongside the in-memory entry, under the same lock,
// so no caller sees the sweep gone while its files remain.
func (s *Server) evictExpired(now time.Time) {
	cutoff := now.Add(-s.cfg.Retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, st := range s.sweeps {
		st.mu.Lock()
		expired := !st.finishedAt.IsZero() && st.finishedAt.Before(cutoff)
		held := len(st.out) + len(st.z)
		st.mu.Unlock()
		if !expired {
			continue
		}
		delete(s.sweeps, id)
		s.gone[id] = struct{}{}
		s.retained.Add(-int64(held))
		s.mSweepsEvicted.Inc()
		if s.cfg.CheckpointDir != "" {
			_ = os.Remove(s.ckptPath(id))
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the executor: the running sweep is canceled at its next
// job boundary, queued sweeps are marked failed, and open result
// streams terminate.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// writeError renders the structured error body with its status code.
func writeError(w http.ResponseWriter, status int, e api.Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	w.WriteHeader(status)
	b, err := errorLine(e)
	if err != nil {
		return
	}
	_, _ = w.Write(b)
}

// errorLine renders e as its canonical single-line body plus newline.
func errorLine(e api.Error) ([]byte, error) {
	b, err := api.MarshalError(e)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// handleSubmit admits one grid: strict decode, size bounds, queue
// bound, then 202 with the sweep's id and results URL.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	grid, err := api.DecodeGrid(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.mRejectedTooLarge.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, api.Error{
				V: api.Version, Code: api.CodeBodyTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
		case errors.Is(err, api.ErrVersion):
			s.mRejectedInvalid.Inc()
			writeError(w, http.StatusBadRequest, api.Error{
				V: api.Version, Code: api.CodeUnsupportedVersion, Message: err.Error(),
			})
		default:
			s.mRejectedInvalid.Inc()
			writeError(w, http.StatusBadRequest, api.Error{
				V: api.Version, Code: api.CodeInvalidGrid, Message: err.Error(),
			})
		}
		return
	}
	if len(grid.Jobs) > s.cfg.MaxGridJobs {
		s.mRejectedTooLarge.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, api.Error{
			V: api.Version, Code: api.CodeGridTooLarge,
			Message: fmt.Sprintf("grid has %d jobs; this server accepts at most %d per sweep",
				len(grid.Jobs), s.cfg.MaxGridJobs),
		})
		return
	}

	st := &sweepState{
		jobs:   len(grid.Jobs),
		status: statusQueued,
		wake:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.queuedJobs+len(grid.Jobs) > s.cfg.MaxQueuedJobs {
		depth := s.queuedJobs
		s.mu.Unlock()
		s.mRejectedOverload.Inc()
		retry := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		writeError(w, http.StatusTooManyRequests, api.Error{
			V: api.Version, Code: api.CodeOverloaded,
			Message: fmt.Sprintf("queue holds %d jobs; admitting %d more would exceed the %d-job bound",
				depth, len(grid.Jobs), s.cfg.MaxQueuedJobs),
			RetryAfterSec: retry,
		})
		return
	}
	s.queuedJobs += len(grid.Jobs)
	s.nextID++
	st.id = fmt.Sprintf("s%d", s.nextID)
	s.sweeps[st.id] = st
	s.mu.Unlock()

	// Persist the sweep before acking: an id the client holds must
	// survive a restart. Creating the checkpoint lands its header, which
	// holds the grid, atomically and durably.
	if s.cfg.CheckpointDir != "" {
		cp, err := checkpoint.Open(s.ckptPath(st.id), sweep.Config{Jobs: grid.SweepJobs(), Seed: grid.Seed},
			checkpoint.Options{Registry: s.reg})
		if err == nil {
			err = cp.Close()
		}
		if err != nil {
			s.mu.Lock()
			delete(s.sweeps, st.id)
			s.queuedJobs -= len(grid.Jobs)
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, api.Error{
				V: api.Version, Code: api.CodeInternal,
				Message: fmt.Sprintf("persist sweep: %v", err),
			})
			return
		}
	}

	s.mSweepsAccepted.Inc()
	s.mJobsCoalesced.Add(uint64(len(grid.Jobs) - sweep.Families(grid.SweepJobs())))
	s.queue <- queuedSweep{st, grid}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"v\":%d,\"id\":%q,\"jobs\":%d,\"results_url\":\"/v1/sweeps/%s/results\"}\n",
		api.Version, st.id, len(grid.Jobs), st.id)
}

// lookup returns the sweep for the request's {id}. An id this process
// evicted gets 410 Gone — the sweep existed, completed, and aged out
// of retention, so a cursor-resuming client should stop retrying
// rather than suspect a typo'd id (404).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *sweepState {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.sweeps[id]
	_, wasEvicted := s.gone[id]
	s.mu.Unlock()
	if st == nil {
		if wasEvicted {
			writeError(w, http.StatusGone, api.Error{
				V: api.Version, Code: api.CodeGone,
				Message: fmt.Sprintf("sweep %q finished and was evicted after the retention window", id),
			})
		} else {
			writeError(w, http.StatusNotFound, api.Error{
				V: api.Version, Code: api.CodeNotFound,
				Message: fmt.Sprintf("no sweep %q", id),
			})
		}
	}
	return st
}

// handleStatus reports one sweep's lifecycle and progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	status, done, failure := st.snapshot()
	w.Header().Set("Content-Type", "application/json")
	if failure != nil {
		fmt.Fprintf(w, "{\"v\":%d,\"id\":%q,\"status\":%q,\"done\":%d,\"total\":%d,\"error\":%q}\n",
			api.Version, st.id, status, done, st.jobs, failure.Message)
		return
	}
	fmt.Fprintf(w, "{\"v\":%d,\"id\":%q,\"status\":%q,\"done\":%d,\"total\":%d}\n",
		api.Version, st.id, status, done, st.jobs)
}

// handleResults streams the sweep's canonical NDJSON result lines in
// input order, blocking for results not yet computed. Each wake-up
// writes every line the watermark passed since the previous one as a
// single chunk, then flushes once; once the sweep's lines are
// deflated, the chunk is inflated outside the lock. A cursor (the
// number of lines the client already holds, from the ?cursor= query
// parameter or the Last-Event-ID header) resumes mid-stream with no
// duplicates and no gaps. If the sweep failed, the stream ends with one api.Error line
// after the last complete result.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	cursorStr := r.URL.Query().Get("cursor")
	if cursorStr == "" {
		cursorStr = r.Header.Get("Last-Event-ID")
	}
	sent := 0
	if cursorStr != "" {
		n, err := strconv.Atoi(cursorStr)
		if err != nil || n < 0 || n > st.jobs {
			writeError(w, http.StatusBadRequest, api.Error{
				V: api.Version, Code: api.CodeInvalidGrid,
				Message: fmt.Sprintf("cursor %q out of [0, %d]", cursorStr, st.jobs),
			})
			return
		}
		sent = n
	}

	s.mStreamsOpened.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the status line out now: a stream on a sweep with no
		// results yet must still tell the client it is connected.
		flusher.Flush()
	}

	for {
		st.mu.Lock()
		var chunk, z []byte
		from, to := 0, 0
		if st.watermark > sent {
			if sent > 0 {
				from = st.ends[sent-1]
			}
			to = st.ends[st.watermark-1]
			z = st.z
			if z == nil {
				chunk = st.out[from:to]
			}
			sent = st.watermark
		}
		status, failure := st.status, st.failure
		wake := st.wake
		st.mu.Unlock()

		if z != nil {
			var err error
			if chunk, err = inflate(z, from, to); err != nil {
				failure = &api.Error{V: api.Version, Code: api.CodeInternal,
					Message: fmt.Sprintf("inflate results: %v", err)}
			}
		}
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				s.mStreamsDropped.Inc()
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if status == statusDone || status == statusFailed {
			if failure != nil {
				if b, err := errorLine(*failure); err == nil {
					_, _ = w.Write(b)
				}
			}
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			s.mStreamsDropped.Inc()
			return
		}
	}
}

// inflate returns bytes [from, to) of the lines deflated in z.
func inflate(z []byte, from, to int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(z))
	defer r.Close()
	b := make([]byte, to)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b[from:], nil
}

// executor drains the queue one sweep at a time. Within a sweep, jobs
// run on the engine's worker pool with family batching; per-sweep
// serialization keeps the job-latency histogram honest and the cache
// warm for each family group.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		var q queuedSweep
		select {
		case <-s.ctx.Done():
			s.failQueued()
			return
		case q = <-s.queue:
		}
		if s.gate != nil {
			select {
			case <-s.gate:
			case <-s.ctx.Done():
				s.fail(q.st, api.Error{V: api.Version, Code: api.CodeInternal, Message: "server shutting down"})
				s.failQueued()
				return
			}
		}
		s.execute(q.st, q.grid)
	}
}

// logf forwards one operational notice to Config.Log, if set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// failQueued marks every still-queued sweep failed during shutdown.
func (s *Server) failQueued() {
	for {
		select {
		case q := <-s.queue:
			s.fail(q.st, api.Error{V: api.Version, Code: api.CodeInternal, Message: "server shutting down"})
		default:
			return
		}
	}
}

// fail finalizes a sweep in the failed state and returns its
// unfinished jobs to the admission budget.
func (s *Server) fail(st *sweepState, e api.Error) {
	st.mu.Lock()
	remaining := st.jobs - st.done
	st.mu.Unlock()
	s.mu.Lock()
	s.queuedJobs -= remaining
	s.mu.Unlock()
	s.finish(st, statusFailed, &e)
}

// finish moves st to a final status and wakes its streams, so they end
// and their clients can move on; it then deflates the packed lines and
// swaps the deflated copy in for them. Only the executor calls it: the
// sweep publishes no more lines, so out is read outside st.mu, and a
// slice of out a stream took before the swap stays valid. finishedAt is
// set at the swap, so eviction never races it.
func (s *Server) finish(st *sweepState, status sweepStatus, failure *api.Error) {
	st.mu.Lock()
	st.status = status
	st.failure = failure
	st.staged = nil
	st.broadcastLocked()
	raw := st.out
	st.mu.Unlock()

	var z []byte
	if len(raw) > 0 {
		z = s.deflate(raw)
	}
	st.mu.Lock()
	st.out, st.z = nil, z
	st.finishedAt = time.Now()
	st.mu.Unlock()
	s.retained.Add(int64(len(z) - len(raw)))
}

// deflate returns raw compressed at flate.BestSpeed, in an exact-length
// buffer.
func (s *Server) deflate(raw []byte) []byte {
	s.zbuf.Reset()
	if s.zw == nil {
		// NewWriter fails only on an invalid level.
		s.zw, _ = flate.NewWriter(&s.zbuf, flate.BestSpeed)
	} else {
		s.zw.Reset(&s.zbuf)
	}
	// A flate.Writer fails only when its destination does, and writes
	// to a bytes.Buffer cannot fail.
	_, _ = s.zw.Write(raw)
	_ = s.zw.Close()
	return bytes.Clone(s.zbuf.Bytes())
}

// execute runs one sweep of grid on the deterministic engine,
// publishing each result line as its job completes. With CheckpointDir
// set, the sweep runs against its crash-safe checkpoint: points a
// previous process already completed replay through OnResult —
// repopulating the line store in input order, so cursors issued before
// the restart stay valid — and new completions are committed before
// they are streamed.
func (s *Server) execute(st *sweepState, grid api.Grid) {
	st.mu.Lock()
	st.status = statusRunning
	st.staged = make([][]byte, st.jobs)
	st.ends = make([]int, 0, st.jobs)
	st.broadcastLocked()
	st.mu.Unlock()

	cfg := sweep.Config{
		Jobs:          grid.SweepJobs(),
		Seed:          grid.Seed,
		Workers:       s.cfg.Workers,
		Cache:         s.cache,
		BatchFamilies: true,
		ReplicaBatch:  replicaBatchWidth,
		Registry:      s.reg,
		OnBatchFallback: func(reason string) {
			s.logf("sweep %s: replica batching fell back to scalar: %s", st.id, reason)
		},
		Context: s.ctx,
		OnResult: func(r sweep.Result) {
			line, mErr := api.MarshalResultLine(api.ResultFromSweep(r))
			if mErr != nil {
				return
			}
			s.retained.Add(int64(st.publish(r.Index, line)))
			s.mu.Lock()
			s.queuedJobs--
			s.mu.Unlock()
			// Restored points carry no wall time (the canonical encoding
			// excludes it); only points this process computed count as
			// completed work.
			if r.Elapsed > 0 {
				s.mJobsCompleted.Inc()
				s.hJobLatency.Observe(uint64(r.Elapsed.Nanoseconds()))
			}
		},
	}
	if s.cfg.CheckpointDir != "" {
		cp, cerr := checkpoint.Open(s.ckptPath(st.id), cfg, checkpoint.Options{Registry: s.reg})
		if cerr != nil {
			s.fail(st, api.Error{V: api.Version, Code: api.CodeInternal,
				Message: fmt.Sprintf("checkpoint: %v", cerr)})
			return
		}
		defer cp.Close()
		cfg.Checkpoint = cp
	}

	_, err := sweep.Run(cfg)
	if err != nil {
		s.fail(st, api.Error{V: api.Version, Code: api.CodeInternal, Message: err.Error()})
		return
	}
	s.finish(st, statusDone, nil)
}
