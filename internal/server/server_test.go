package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pwf/internal/api"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

func testGrid() api.Grid {
	return api.Grid{
		V:    api.Version,
		Seed: 7,
		Jobs: []api.Job{
			{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 3, Steps: 5000, Exact: true},
			{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 5000, Exact: true},
			{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 4, Steps: 5000,
				Sched: api.SchedulerSpec{Kind: sweep.SchedSticky, Rho: 0.5}},
			{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 5000},
		},
	}
}

// localLines renders the grid's canonical result lines by running the
// sweep in-process — the ground truth HTTP streams must match
// byte-for-byte.
func localLines(t *testing.T, g api.Grid) []byte {
	t.Helper()
	results, err := sweep.Run(sweep.Config{Jobs: g.SweepJobs(), Seed: g.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		if err := api.WriteResultLine(&buf, api.ResultFromSweep(r)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Cache == nil {
		cfg.Cache = sweep.NewChainCache()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, g api.Grid) (id string, jobs int) {
	t.Helper()
	body, err := api.MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var ack struct {
		V          int    `json:"v"`
		ID         string `json:"id"`
		Jobs       int    `json:"jobs"`
		ResultsURL string `json:"results_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.V != api.Version || ack.ID == "" ||
		ack.ResultsURL != "/v1/sweeps/"+ack.ID+"/results" {
		t.Fatalf("malformed ack: %+v", ack)
	}
	return ack.ID, ack.Jobs
}

func decodeError(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body did not decode as api.Error: %v", err)
	}
	if e.V != api.Version {
		t.Errorf("error body v = %d, want %d", e.V, api.Version)
	}
	return e
}

// The acceptance criterion: results streamed over HTTP are
// byte-identical to the canonical lines a local run of the same grid
// and master seed produces.
func TestStreamedResultsMatchLocalRun(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	g := testGrid()
	id, jobs := submit(t, ts, g)
	if jobs != len(g.Jobs) {
		t.Fatalf("ack reports %d jobs, want %d", jobs, len(g.Jobs))
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q, want application/x-ndjson", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("streamed bytes differ from local run:\n got: %s\nwant: %s", got, want)
	}

	// The stream is also valid canonical NDJSON with per-job indices
	// in input order.
	results, err := api.ReadResults(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("line %d has index %d; stream must be in input order", i, r.Index)
		}
	}

	// And the status endpoint reports completion.
	st, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	}
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Status != "done" || status.Done != len(g.Jobs) || status.Total != len(g.Jobs) {
		t.Errorf("status after stream = %+v, want done %d/%d", status, len(g.Jobs), len(g.Jobs))
	}
}

// Cursor resume: a client that read k lines and reconnected with
// cursor=k sees exactly the remaining lines — no duplicates, no gaps.
func TestResultsCursorResume(t *testing.T) {
	_, ts := startServer(t, Config{})
	g := testGrid()
	id, _ := submit(t, ts, g)
	want := localLines(t, g)
	wantLines := bytes.SplitAfter(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))

	// First connection: read two lines, then drop it mid-stream.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	var head bytes.Buffer
	for i := 0; i < 2; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		head.Write(line)
	}
	resp.Body.Close()

	// Resume from cursor=2, once via the query parameter and once via
	// the Last-Event-ID header; both must return exactly the tail.
	for _, mk := range []func() *http.Request{
		func() *http.Request {
			r, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/results?cursor=2", nil)
			return r
		},
		func() *http.Request {
			r, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/results", nil)
			r.Header.Set("Last-Event-ID", "2")
			return r
		},
	} {
		resp, err := http.DefaultClient.Do(mk())
		if err != nil {
			t.Fatal(err)
		}
		tail, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([]byte{}, head.Bytes()...), tail...)
		if !bytes.Equal(full, want) {
			t.Errorf("head+tail != full stream:\n got: %s\nwant: %s", full, want)
		}
		gotLines := bytes.SplitAfter(bytes.TrimSuffix(tail, []byte("\n")), []byte("\n"))
		if len(gotLines) != len(wantLines)-2 {
			t.Errorf("resume returned %d lines, want %d", len(gotLines), len(wantLines)-2)
		}
	}

	// Cursor at the end yields an empty, immediately-closed stream.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?cursor=%d", ts.URL, id, len(g.Jobs)))
	if err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("cursor=total returned %d bytes, want none", len(rest))
	}

	// Out-of-range and malformed cursors are structured 400s.
	for _, cursor := range []string{"-1", "999", "two"} {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results?cursor=" + cursor)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cursor=%s: status %d, want 400", cursor, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != api.CodeInvalidGrid {
			t.Errorf("cursor=%s: code %q", cursor, e.Code)
		}
	}
}

// A client that disconnects mid-stream releases its handler: the
// blocked stream observes the canceled request context and the
// disconnect counter advances.
func TestClientDisconnectMidStream(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	_, ts := startServer(t, Config{Registry: reg, gate: gate})
	id, _ := submit(t, ts, testGrid())

	// The sweep is gated, so the stream has nothing to send and parks
	// in its wait loop.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sweeps/"+id+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["server_streams_opened"]; got != 1 {
		t.Errorf("streams opened = %d, want 1", got)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["server_streams_disconnected"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect was never observed by the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate) // let the sweep drain before Cleanup closes the server
}

// Oversized submissions are rejected up front with structured bodies:
// too many jobs (grid_too_large) and too many bytes (body_too_large).
func TestOversizedSubmissionsRejected(t *testing.T) {
	_, ts := startServer(t, Config{MaxGridJobs: 2, MaxBodyBytes: 512})

	g := testGrid() // 4 jobs > MaxGridJobs, but also > 512 bytes, so shrink steps first
	small := api.Grid{V: api.Version, Seed: 1, Jobs: []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 100},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 100},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 4, Steps: 100},
	}}
	body, err := api.MarshalGrid(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 512 {
		t.Fatalf("test grid unexpectedly large: %d bytes", len(body))
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("3-job grid with MaxGridJobs=2: status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeGridTooLarge {
		t.Errorf("code %q, want %q", e.Code, api.CodeGridTooLarge)
	}

	g.Jobs[0].Label = strings.Repeat("x", 600)
	big, err := api.MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 512 {
		t.Fatalf("big grid unexpectedly small: %d bytes", len(big))
	}
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeBodyTooLarge {
		t.Errorf("code %q, want %q", e.Code, api.CodeBodyTooLarge)
	}
}

// Bounded admission: once queued jobs reach MaxQueuedJobs, further
// submissions get 429 with a Retry-After header and a structured
// body, and the queue-depth gauge exposes the backlog.
func TestOverloadRejectsWith429(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	_, ts := startServer(t, Config{Registry: reg, MaxQueuedJobs: 4, RetryAfter: 3 * time.Second, gate: gate})

	if _, jobs := submit(t, ts, testGrid()); jobs != 4 {
		t.Fatalf("first submission queued %d jobs, want 4", jobs)
	}
	if depth := reg.Snapshot().Gauges["server_queue_depth"]; depth != 4 {
		t.Errorf("queue depth = %d, want 4", depth)
	}

	body, err := api.MarshalGrid(api.Grid{V: api.Version, Seed: 1, Jobs: []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	e := decodeError(t, resp)
	if e.Code != api.CodeOverloaded {
		t.Errorf("code %q, want %q", e.Code, api.CodeOverloaded)
	}
	if e.RetryAfterSec != 3 {
		t.Errorf("retry_after_sec = %d, want 3", e.RetryAfterSec)
	}
	if got := reg.Snapshot().Counters["server_sweeps_rejected_overload"]; got != 1 {
		t.Errorf("overload rejections = %d, want 1", got)
	}

	// Releasing the gate drains the queue; capacity comes back and the
	// same submission is now accepted.
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Gauges["server_queue_depth"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after releasing the gate")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain submission: status %d, want 202", resp.StatusCode)
	}
}

// Malformed submissions and unknown sweeps produce structured errors
// with stable codes.
func TestStructuredErrors(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"not json", "nope", http.StatusBadRequest, api.CodeInvalidGrid},
		{"unknown field", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":10,"warmup_fraction":0,"bogus":1}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"empty grid", `{"v":1,"seed":1,"jobs":[]}`, http.StatusBadRequest, api.CodeInvalidGrid},
		{"wrong version", `{"v":9,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeUnsupportedVersion},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if e := decodeError(t, resp); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}

	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/results", "/bogus"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != api.CodeNotFound {
			t.Errorf("GET %s: code %q, want %q", path, e.Code, api.CodeNotFound)
		}
	}
}

// A scheduler spec whose ticket total overflows int is a client error:
// the submit gets a 400 and the daemon keeps serving. Before Validate
// checked the total, the grid was admitted and a sweep worker panicked
// in its first draw, killing the whole process.
func TestOverflowingLotterySpecRejected(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,` +
		`"sched":"lottery:9223372036854775807,1","steps":100,"warmup_fraction":0}]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeInvalidGrid {
		t.Errorf("code %q, want %q", e.Code, api.CodeInvalidGrid)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d after the rejected submit", hz.StatusCode)
	}
}

// A crash job under the adversary scheduler, which cannot crash
// processes, is a client error at submit. Before Job.Validate checked
// crash support, the grid was admitted with a 202 and the sweep later
// failed as a whole with code internal.
func TestAdversaryCrashJobRejected(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,` +
		`"sched":"adversary:0","crash":1,"steps":100,"warmup_fraction":0}]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeInvalidGrid {
		t.Errorf("code %q, want %q", e.Code, api.CodeInvalidGrid)
	}
}

// A workload whose parameters are out of range is refused at
// submission, before any checkpoint binds it, rather than admitted and
// failed when its first point is built.
func TestOutOfRangeWorkloadRejected(t *testing.T) {
	dir := t.TempDir()
	_, ts := startServer(t, Config{CheckpointDir: dir})
	for _, w := range []string{`{"kind":"scu","q":-1,"s":1}`, `{"kind":"scu"}`,
		`{"kind":"stack","pool_size":600000}`, `{"kind":"wfuniversal","pool_size":1}`} {
		body := `{"v":1,"seed":1,"jobs":[{"workload":` + w + `,"n":2,"steps":100,"warmup_fraction":0}]}`
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", w, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != api.CodeInvalidGrid {
			t.Errorf("%s: code %q, want %q", w, e.Code, api.CodeInvalidGrid)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("rejected grids left %d files in the checkpoint dir", len(files))
	}
}

// The observability surface: /healthz answers, /metrics exposes queue
// depth, batching counters, per-job latency histogram, the chain
// cache's hit/miss gauges, and the retained-bytes gauge, which counts
// exactly the bytes the stored sweeps hold: deflated, once finished,
// so fewer than they stream.
func TestMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := startServer(t, Config{Registry: reg})
	g := testGrid()
	id, _ := submit(t, ts, g)
	streamed := len(readStream(t, ts, id, 0))

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", hz.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics did not decode as a snapshot: %v", err)
	}
	if got := snap.Counters["server_jobs_completed"]; got != uint64(len(g.Jobs)) {
		t.Errorf("jobs completed = %d, want %d", got, len(g.Jobs))
	}
	if snap.Counters["server_sweeps_accepted"] != 1 {
		t.Errorf("sweeps accepted = %d, want 1", snap.Counters["server_sweeps_accepted"])
	}
	// testGrid has 4 jobs in 4 distinct families (different scheds /
	// exactness), so coalescing is 0 here; the counter must exist.
	if _, ok := snap.Counters["server_jobs_coalesced"]; !ok {
		t.Error("server_jobs_coalesced counter missing")
	}
	if _, ok := snap.Gauges["server_queue_depth"]; !ok {
		t.Error("server_queue_depth gauge missing")
	}
	if _, ok := snap.Gauges["chain_cache_hits"]; !ok {
		t.Error("chain_cache_hits gauge missing")
	}
	h, ok := snap.Histograms["server_job_latency_ns"]
	if !ok {
		t.Fatal("server_job_latency_ns histogram missing")
	}
	if h.Count != uint64(len(g.Jobs)) {
		t.Errorf("latency histogram count = %d, want %d", h.Count, len(g.Jobs))
	}

	ids := []string{id}
	for seed := uint64(8); seed < 10; seed++ {
		g.Seed = seed
		id, _ := submit(t, ts, g)
		ids = append(ids, id)
		streamed += len(readStream(t, ts, id, 0))
	}
	held := 0
	for _, id := range ids {
		st := finishedState(t, s, id)
		st.mu.Lock()
		held += len(st.out) + len(st.z)
		st.mu.Unlock()
	}
	if got := reg.Snapshot().Gauges["server_retained_bytes"]; got != uint64(held) {
		t.Errorf("server_retained_bytes = %d after 3 sweeps, want the %d bytes their states hold", got, held)
	}
	if held >= streamed {
		t.Errorf("3 finished sweeps hold %d bytes, want fewer than the %d bytes streamed", held, streamed)
	}
	s.evictExpired(time.Now().Add(2 * defaultRetention))
	if got := reg.Snapshot().Gauges["server_retained_bytes"]; got != 0 {
		t.Errorf("server_retained_bytes = %d after every sweep was evicted, want 0", got)
	}
}

// finishedState waits until sweep id has finished and its lines are
// deflated, and returns its state.
func finishedState(t *testing.T, s *Server, id string) *sweepState {
	t.Helper()
	s.mu.Lock()
	st := s.sweeps[id]
	s.mu.Unlock()
	if st == nil {
		t.Fatalf("no sweep %s", id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st.mu.Lock()
		finished := !st.finishedAt.IsZero()
		st.mu.Unlock()
		if finished {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// readStream reads sweep id's result stream from cursor to its end.
func readStream(t *testing.T, ts *httptest.Server, id string, cursor int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?cursor=%d", ts.URL, id, cursor))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results of %s at cursor %d: status %d", id, cursor, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interleavedGrid alternates three job families, so family batching
// runs the jobs out of input order and most results complete before
// the watermark reaches them.
func interleavedGrid() api.Grid {
	shapes := []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 3000},
		{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 3, Steps: 3000},
		{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 3, Steps: 3000,
			Sched: api.SchedulerSpec{Kind: sweep.SchedSticky, Rho: 0.5}},
	}
	g := api.Grid{V: api.Version, Seed: 13}
	for i := 0; i < 9; i++ {
		j := shapes[i%len(shapes)]
		j.Label = fmt.Sprintf("j%d", i)
		g.Jobs = append(g.Jobs, j)
	}
	return g
}

// The packed line store serves every cursor of a sweep whose results
// arrive out of input order: streams opened before the sweep runs and
// streams opened after it finished each return exactly the tail of a
// local run from their cursor. A finished sweep keeps its lines
// deflated, with their offsets, and no raw buffer or staged lines.
func TestPackedStoreServesEveryCursor(t *testing.T) {
	g := interleavedGrid()
	want := localLines(t, g)
	wantLines := bytes.SplitAfter(want, []byte("\n"))[:len(g.Jobs)]
	tail := func(k int) []byte { return bytes.Join(wantLines[k:], nil) }

	// The server's execution order, reproduced locally, is not input
	// order; otherwise nothing would ever be staged.
	var order []int
	if _, err := sweep.Run(sweep.Config{Jobs: g.SweepJobs(), Seed: g.Seed, Workers: 1,
		BatchFamilies: true, ReplicaBatch: replicaBatchWidth,
		OnResult: func(r sweep.Result) { order = append(order, r.Index) }}); err != nil {
		t.Fatal(err)
	}
	if sort.IntsAreSorted(order) {
		t.Fatalf("results complete in input order %v; the grid must interleave families", order)
	}

	reg := obs.NewRegistry()
	gate := make(chan struct{})
	s, ts := startServer(t, Config{Workers: 1, Registry: reg, gate: gate})
	id, _ := submit(t, ts, g)
	var running []*http.Response
	for k := 0; k <= len(g.Jobs); k++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?cursor=%d", ts.URL, id, k))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		running = append(running, resp)
	}
	if got := reg.Snapshot().Counters["server_streams_opened"]; got != uint64(len(running)) {
		t.Fatalf("%d streams opened before the sweep ran, want %d", got, len(running))
	}
	close(gate)
	for k, resp := range running {
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tail(k)) {
			t.Errorf("running sweep, cursor %d:\n got: %s\nwant: %s", k, got, tail(k))
		}
	}
	for k := 0; k <= len(g.Jobs); k++ {
		if got := readStream(t, ts, id, k); !bytes.Equal(got, tail(k)) {
			t.Errorf("finished sweep, cursor %d:\n got: %s\nwant: %s", k, got, tail(k))
		}
	}

	st := finishedState(t, s, id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.status != statusDone || st.watermark != len(g.Jobs) {
		t.Fatalf("sweep %s: status %s, watermark %d", id, st.status, st.watermark)
	}
	if st.staged != nil {
		t.Errorf("finished sweep keeps %d staged slots", len(st.staged))
	}
	if st.out != nil {
		t.Errorf("finished sweep keeps a raw buffer of %d bytes", len(st.out))
	}
	if len(st.ends) != len(g.Jobs) {
		t.Fatalf("finished sweep holds %d offsets, want %d", len(st.ends), len(g.Jobs))
	}
	got, err := inflate(st.z, 0, st.ends[len(st.ends)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("finished sweep inflates to %d bytes that differ from the local run's %d", len(got), len(want))
	}
}

// slowWriter is a recorder whose first Write blocks until release is
// closed: a stream client that reads slowly.
type slowWriter struct {
	*httptest.ResponseRecorder
	first   chan struct{} // closed when the first Write starts
	release chan struct{}
	writes  int
}

func (w *slowWriter) Write(b []byte) (int, error) {
	if w.writes++; w.writes == 1 {
		close(w.first)
		<-w.release
	}
	return w.ResponseRecorder.Write(b)
}

// A stream opened before its sweep runs, whose client reads slowly,
// spans the sweep's compaction: it takes its first chunk from the raw
// buffer, stalls in that write until the sweep has finished and
// deflated its lines, then takes the rest from the deflated copy. It
// gets every line once, byte-identical to a local run. The grid's last
// job is the heaviest and runs last, so the first chunk cannot already
// hold every line. Meanwhile streams at every cursor are opened back to
// back until the compaction is done, so under -race the swap overlaps
// readers on the raw and on the deflated path.
func TestSlowStreamSpansCompaction(t *testing.T) {
	g := interleavedGrid()
	g.Jobs = append(g.Jobs, api.Job{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 9, Steps: 300_000, Label: "heavy"})
	want := localLines(t, g)
	wantLines := bytes.SplitAfter(want, []byte("\n"))[:len(g.Jobs)]

	gate := make(chan struct{})
	s, ts := startServer(t, Config{Workers: 1, gate: gate})
	id, _ := submit(t, ts, g)
	results := func(k int) *http.Request {
		return httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/sweeps/%s/results?cursor=%d", id, k), nil)
	}
	w := &slowWriter{ResponseRecorder: httptest.NewRecorder(), first: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.ServeHTTP(w, results(0))
	}()
	compacted := make(chan struct{})
	var readers sync.WaitGroup
	for k := 0; k <= len(g.Jobs); k++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-compacted:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, results(k))
				if tail := bytes.Join(wantLines[k:], nil); !bytes.Equal(rec.Body.Bytes(), tail) {
					t.Errorf("cursor %d across the compaction:\n got: %s\nwant: %s", k, rec.Body.Bytes(), tail)
					return
				}
			}
		}()
	}
	close(gate)

	<-w.first
	finishedState(t, s, id)
	close(compacted)
	readers.Wait()
	close(w.release)
	<-served
	if w.writes < 2 {
		t.Errorf("stream wrote %d chunks, want its first before the compaction and more after", w.writes)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("slow stream across the compaction:\n got: %s\nwant: %s", w.Body.Bytes(), want)
	}
}

// Family batching advertises its coalescing: a grid of same-family
// jobs counts len(jobs)-1 coalesced dispatches. Families are keyed on
// the full job shape — jobs differing in N (or weights, or crash
// plans) are distinct families, only presentation fields coalesce.
func TestCoalescingCounter(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := startServer(t, Config{Registry: reg})
	g := api.Grid{V: api.Version, Seed: 3, Jobs: []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 200, Label: "a"},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 200, Label: "b"},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 200, Label: "c"},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 4, Steps: 200},
	}}
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("batched sweep bytes differ from local run:\n got: %s\nwant: %s", got, want)
	}
	if c := reg.Snapshot().Counters["server_jobs_coalesced"]; c != 2 {
		t.Errorf("jobs coalesced = %d, want 2 (4 jobs, 2 families)", c)
	}
}

// A replica-heavy grid — one shape repeated across many jobs, the
// sweep the batched simulator core coalesces — still streams bytes
// identical to the scalar local run.
func TestReplicaHeavyGridMatchesLocalRun(t *testing.T) {
	jobs := make([]api.Job, 24)
	for i := range jobs {
		jobs[i] = api.Job{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 5, Steps: 2000}
	}
	g := api.Grid{V: api.Version, Seed: 41, Jobs: jobs}
	_, ts := startServer(t, Config{Workers: 2})
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("replica-batched sweep bytes differ from scalar local run:\n got: %s\nwant: %s", got, want)
	}
}

// Finished sweeps are evicted after the retention window: the id
// 404s, the store shrinks, and the eviction is counted in /metrics.
func TestRetentionEvictsFinishedSweeps(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := startServer(t, Config{Retention: 50 * time.Millisecond, Registry: reg})
	g := testGrid()
	id, _ := submit(t, ts, g)

	// Drain the stream so the sweep finishes.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGone {
			e := decodeError(t, resp)
			if e.Code != api.CodeGone {
				t.Errorf("evicted sweep error code = %q, want %q", e.Code, api.CodeGone)
			}
			break
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still queryable long past the retention window", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	stored := len(s.sweeps)
	s.mu.Unlock()
	if stored != 0 {
		t.Errorf("%d sweeps still stored after eviction", stored)
	}
	if c := reg.Snapshot().Counters["server_sweeps_evicted"]; c != 1 {
		t.Errorf("server_sweeps_evicted = %d, want 1", c)
	}

	// A running (unfinished) sweep must never be evicted: hold the
	// executor at the gate so the sweep stays queued past the window.
	gate := make(chan struct{})
	reg2 := obs.NewRegistry()
	s2, ts2 := startServer(t, Config{Retention: 30 * time.Millisecond, Registry: reg2, gate: gate})
	id2, _ := submit(t, ts2, g)
	time.Sleep(150 * time.Millisecond) // several retention windows
	s2.mu.Lock()
	_, present := s2.sweeps[id2]
	s2.mu.Unlock()
	if !present {
		t.Error("queued sweep was evicted before finishing")
	}
	close(gate)
}

// A client resuming a result stream by cursor after its sweep aged
// out of retention gets 410 Gone with the stable "gone" code — it
// should stop retrying — while a never-issued id stays 404.
func TestEvictedCursorResumeGets410(t *testing.T) {
	s, ts := startServer(t, Config{Retention: 30 * time.Millisecond})
	g := testGrid()
	id, _ := submit(t, ts, g)

	// Stream part of the results, remembering the cursor.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	cursor := 0
	for sc.Scan() {
		cursor++
		if cursor == 2 {
			break
		}
	}
	resp.Body.Close()

	// Let the sweep finish and age out.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, present := s.sweeps[id]
		s.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resume, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?cursor=%d", ts.URL, id, cursor))
	if err != nil {
		t.Fatal(err)
	}
	if resume.StatusCode != http.StatusGone {
		t.Errorf("cursor resume after eviction: status %d, want %d", resume.StatusCode, http.StatusGone)
	}
	e := decodeError(t, resume)
	if e.Code != api.CodeGone {
		t.Errorf("code %q, want %q", e.Code, api.CodeGone)
	}

	// An id that never existed is still a 404: "gone" is a statement
	// about history, not a catch-all.
	other, err := http.Get(ts.URL + "/v1/sweeps/s999999")
	if err != nil {
		t.Fatal(err)
	}
	if other.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want %d", other.StatusCode, http.StatusNotFound)
	}
	if e := decodeError(t, other); e.Code != api.CodeNotFound {
		t.Errorf("unknown id code %q, want %q", e.Code, api.CodeNotFound)
	}
}

// With CheckpointDir set, a submitted sweep survives a process
// restart: a new server over the same directory re-serves the same
// id, the same result bytes, and honors cursors issued before the
// restart — without recomputing completed points.
func TestCheckpointDirPersistsSweepsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	want := localLines(t, g)

	reg1 := obs.NewRegistry()
	s1, ts1 := startServer(t, Config{CheckpointDir: dir, Registry: reg1})
	id, _ := submit(t, ts1, g)

	// Drain the full stream (sweep done, checkpoint fully written),
	// but pretend this client only saw the first 2 lines.
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	first, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("pre-restart stream differs from local run:\n%s\nwant:\n%s", first, want)
	}
	ts1.Close()
	s1.Close()

	// "Restart": a fresh server over the same directory.
	reg2 := obs.NewRegistry()
	_, ts2 := startServer(t, Config{CheckpointDir: dir, Registry: reg2})

	// The old id resolves, with the same bytes.
	resp2, err := http.Get(ts2.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restored sweep stream: status %d", resp2.StatusCode)
	}
	again, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("post-restart stream differs from local run")
	}

	// A cursor issued before the restart resumes with no gaps and no
	// duplicates.
	lines := bytes.SplitAfter(want, []byte("\n"))
	resp3, err := http.Get(ts2.URL + "/v1/sweeps/" + id + "/results?cursor=2")
	if err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wantTail := bytes.Join(lines[2:], nil); !bytes.Equal(tail, wantTail) {
		t.Errorf("cursor resume after restart:\n%s\nwant:\n%s", tail, wantTail)
	}

	// Restored, replayed from the checkpoint — not recomputed.
	snap := reg2.Snapshot()
	if snap.Counters["server_sweeps_restored"] != 1 {
		t.Errorf("server_sweeps_restored = %d, want 1", snap.Counters["server_sweeps_restored"])
	}
	if c := snap.Counters["server_jobs_completed"]; c != 0 {
		t.Errorf("restart recomputed %d jobs; want 0 (checkpoint replay)", c)
	}
	if c := snap.Counters["checkpoint_points_restored"]; c != uint64(len(g.Jobs)) {
		t.Errorf("checkpoint_points_restored = %d, want %d", c, len(g.Jobs))
	}

	// New submissions on the restarted server do not collide with
	// restored ids.
	id2, _ := submit(t, ts2, g)
	if id2 == id {
		t.Errorf("restarted server reissued id %q", id)
	}
}

// A sweep restored from CheckpointDir finishes through the executor
// like any other: after the restart it holds its lines deflated, and
// every cursor still streams exactly the local run's tail.
func TestRestoredSweepServesEveryCursorDeflated(t *testing.T) {
	dir := t.TempDir()
	g := interleavedGrid()
	want := localLines(t, g)
	wantLines := bytes.SplitAfter(want, []byte("\n"))[:len(g.Jobs)]

	s1, ts1 := startServer(t, Config{CheckpointDir: dir})
	id, _ := submit(t, ts1, g)
	if got := readStream(t, ts1, id, 0); !bytes.Equal(got, want) {
		t.Fatalf("pre-restart stream differs from local run:\n%s\nwant:\n%s", got, want)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := startServer(t, Config{CheckpointDir: dir})
	st := finishedState(t, s2, id)
	st.mu.Lock()
	status, raw, z := st.status, st.out, st.z
	st.mu.Unlock()
	if status != statusDone || raw != nil || z == nil {
		t.Fatalf("restored sweep: status %s, %d raw bytes, %d deflated; want done, deflated only", status, len(raw), len(z))
	}
	for k := 0; k <= len(g.Jobs); k++ {
		if got, tail := readStream(t, ts2, id, k), bytes.Join(wantLines[k:], nil); !bytes.Equal(got, tail) {
			t.Errorf("restored sweep, cursor %d:\n got: %s\nwant: %s", k, got, tail)
		}
	}
}

// Eviction under CheckpointDir deletes the persisted file, so a
// restart does not resurrect expired sweeps.
func TestEvictionRemovesPersistedState(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, Config{CheckpointDir: dir, Retention: 30 * time.Millisecond})
	g := testGrid()
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, present := s.sweeps[id]
		s.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(s.ckptPath(id)); !os.IsNotExist(err) {
		t.Errorf("%s still exists after eviction (stat err: %v)", s.ckptPath(id), err)
	}
}

// A checkpoint a restart cannot load — its header does not parse, or
// its grid fails strict decoding — is restored as a failed sweep under
// its id, beside a good sweep that still streams its exact bytes. New
// ids continue past all of them, and retention evicts the failed
// sweeps and deletes their files like any finished sweep's.
func TestRestoreSurfacesUnloadableCheckpoints(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	want := localLines(t, g)

	s1, ts1 := startServer(t, Config{CheckpointDir: dir})
	good, _ := submit(t, ts1, g)
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + good + "/results")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	ts1.Close()
	s1.Close()

	data, err := os.ReadFile(s1.ckptPath(good))
	if err != nil {
		t.Fatal(err)
	}
	header := data[:bytes.IndexByte(data, '\n')+1]
	unparsable := fmt.Sprintf("s%d", idNum(good)+1)
	undecodable := fmt.Sprintf("s%d", idNum(good)+2)
	for id, b := range map[string][]byte{
		unparsable:  []byte("{\"v\":2,\"format\":\n"),
		undecodable: bytes.Replace(header, []byte(`"kind":"scu"`), []byte(`"kind":"sku"`), 1),
	} {
		if err := os.WriteFile(s1.ckptPath(id), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, ts2 := startServer(t, Config{CheckpointDir: dir})
	for _, id := range []string{unparsable, undecodable} {
		resp, err := http.Get(ts2.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.Status != "failed" || !strings.HasPrefix(status.Error, "restore: ") {
			t.Errorf("%s: status %q, error %q; want failed with a restore: message", id, status.Status, status.Error)
		}
	}

	resp, err = http.Get(ts2.URL + "/v1/sweeps/" + good + "/results")
	if err != nil {
		t.Fatal(err)
	}
	again, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("good sweep beside unloadable checkpoints streams:\n%s\nwant:\n%s", again, want)
	}

	fresh, _ := submit(t, ts2, g)
	for _, id := range []string{good, unparsable, undecodable} {
		if idNum(fresh) <= idNum(id) {
			t.Errorf("new submission got id %s, not after restored %s", fresh, id)
		}
	}

	s2.evictExpired(time.Now().Add(2 * defaultRetention))
	for _, id := range []string{unparsable, undecodable} {
		resp, err := http.Get(ts2.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusGone {
			t.Errorf("%s after retention: status %d, want %d", id, resp.StatusCode, http.StatusGone)
		}
		resp.Body.Close()
		if _, err := os.Stat(s2.ckptPath(id)); !os.IsNotExist(err) {
			t.Errorf("%s still exists after eviction (stat err: %v)", s2.ckptPath(id), err)
		}
	}
}

// Restart reads only each checkpoint's header line, so a file with a
// good header and a garbage record restores as a queued sweep; the
// record is found when the executor opens the checkpoint, and the
// sweep then fails with a message that names the file.
func TestRestoreDefersRecordErrorsToExecutor(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	s1, ts1 := startServer(t, Config{CheckpointDir: dir})
	id, _ := submit(t, ts1, g)
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	ts1.Close()
	s1.Close()

	path := s1.ckptPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := data[:bytes.IndexByte(data, '\n')+1]
	damaged := append(append([]byte{}, header...), "not a record\n{\"v\":1,\"ind"...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, ts2 := startServer(t, Config{CheckpointDir: dir, Registry: reg})
	if n := reg.Snapshot().Counters["server_sweeps_restored"]; n != 1 {
		t.Fatalf("server_sweeps_restored = %d, want 1 (restored as queued)", n)
	}
	resp, err = http.Get(ts2.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	if err := json.Unmarshal(bytes.TrimSuffix(stream, []byte("\n")), &e); err != nil {
		t.Fatalf("stream is not one api.Error line: %v: %s", err, stream)
	}
	if !strings.HasPrefix(e.Message, "checkpoint: ") || !strings.Contains(e.Message, path) {
		t.Errorf("error %q: want a checkpoint: message naming %s", e.Message, path)
	}

	resp, err = http.Get(ts2.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status.Status != "failed" {
		t.Errorf("sweep status %q, want failed", status.Status)
	}
}

// A result-stream client that stops reading stalls only its own
// handler. Small socket buffers on both ends make the server's writes
// block a few kilobytes into a stream of hundreds; the executor still
// finishes that sweep, a later sweep runs and streams the local run's
// bytes, and closing the stalled connection releases the blocked
// handler, which counts the disconnect.
func TestStalledStreamClientDoesNotBlockExecutor(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, Cache: sweep.NewChainCache()})
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && state == http.StateNew {
			_ = tc.SetWriteBuffer(4096)
		}
	}
	ts.Start()
	t.Cleanup(func() { ts.Close(); s.Close() })

	big := api.Grid{V: api.Version, Seed: 5}
	for i := 0; i < 1500; i++ {
		big.Jobs = append(big.Jobs, api.Job{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 200})
	}
	id, _ := submit(t, ts, big)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // before the server's Cleanup waits on the handler
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET /v1/sweeps/%s/results HTTP/1.1\r\nHost: pwf\r\n\r\n", id); err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("the stalled stream to open", func() bool {
		return reg.Snapshot().Counters["server_streams_opened"] == 1
	})
	waitFor("the executor to finish the stalled sweep", func() bool {
		s.mu.Lock()
		st := s.sweeps[id]
		s.mu.Unlock()
		status, _, _ := st.snapshot()
		return status == statusDone
	})

	g := testGrid()
	id2, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id2 + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("sweep behind a stalled stream:\n%s\nwant:\n%s", got, want)
	}
	if c := reg.Snapshot().Counters["server_streams_disconnected"]; c != 0 {
		t.Fatalf("server_streams_disconnected = %d before the stalled client closed", c)
	}

	conn.Close()
	waitFor("the stalled handler to count its disconnect", func() bool {
		return reg.Snapshot().Counters["server_streams_disconnected"] == 1
	})
}
