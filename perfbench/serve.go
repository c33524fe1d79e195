package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"pwf/internal/api"
	"pwf/internal/obs"
	"pwf/internal/server"
	"pwf/internal/sweep"
)

// serveWorkload is a closed loop of one client on one connection
// against an in-process pwfserve with one worker: POST a grid, read
// its results to the last line, repeat. The server keeps no checkpoint
// directory: on a shared disk its fsyncs made per-sweep latency swing
// by more than any bound the benchmark could hold (see README.md).
type serveWorkload struct {
	sweeps int // sweeps per round, all on one server
	pinned map[uint64]string

	// Data the traced round leaves for the replays.
	bodies  [][]byte
	streams [][][]byte
	lats    time.Duration
}

// sweepTimes are one sweep's client-side timestamps.
type sweepTimes struct{ submit, firstLine, stream time.Duration }

// serveSetup is one round's running server and connected client.
type serveSetup struct {
	bodies [][]byte
	steps  uint64
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// setup builds the round's grids from the seed, starts the server on
// a loopback listener, and opens the client's one connection with the
// readiness probe.
func (s *serveWorkload) setup(e *env) (*serveSetup, error) {
	st := &serveSetup{bodies: make([][]byte, s.sweeps)}
	for j := range st.bodies {
		g := serveGrid(e.seed, j)
		b, err := api.MarshalGrid(g)
		if err != nil {
			return nil, err
		}
		st.bodies[j] = b
		st.steps += gridSteps(g)
	}
	st.srv = server.New(server.Config{Workers: 1, Registry: obs.NewRegistry(), Cache: sweep.NewChainCache()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	st.base = "http://" + ln.Addr().String()
	if err := get(st.client, st.base+"/healthz", io.Discard); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the client, the listener and the server, and waits for
// them.
func (st *serveSetup) close() {
	if st.hs != nil {
		st.client.CloseIdleConnections()
		st.hs.Close()
		<-st.served
	}
	st.srv.Close()
}

func (s *serveWorkload) setupTime(e *env, _ int) (time.Duration, error) {
	began := time.Now()
	st, err := s.setup(e)
	d := time.Since(began)
	if err != nil {
		return 0, err
	}
	st.close()
	return d, nil
}

// round is one session: a fresh server, serveSweeps sweeps timed in
// units of serveUnit, then the checks.
func (s *serveWorkload) round(e *env, r int, tr *trace) (roundStats, error) {
	if r > 0 {
		// A session is long enough that collecting the previous one's
		// garbage first moves no real GC work out of the timed part.
		runtime.GC()
	}
	began := time.Now()
	if r == 0 {
		began = processStart
	}
	st, err := s.setup(e)
	if err != nil {
		return roundStats{}, err
	}
	defer st.close()
	setup := time.Since(began)

	rd := &streamReader{br: bufio.NewReaderSize(nil, 64<<10), h: sha256.New(), keep: tr != nil}
	lats := make([]time.Duration, len(st.bodies))
	times := make([]sweepTimes, len(st.bodies))
	streams := make([][][]byte, len(st.bodies))
	ops := tally{attempted: len(st.bodies)}
	var units []time.Duration
	start := time.Now()
	unitStart := start
	for j, body := range st.bodies {
		t0 := time.Now()
		var err error
		streams[j], times[j], err = rd.sweep(st.client, st.base, body)
		now := time.Now()
		lats[j] = now.Sub(t0)
		if err != nil {
			fmt.Fprintf(e.stderr, "perfbench: serve-loop: sweep %d: %v\n", j, err)
			ops.failed++
		}
		if (j+1)%serveUnit == 0 {
			units = append(units, now.Sub(unitStart))
			unitStart = now
		}
	}
	wall := time.Since(start)

	if tr != nil {
		var snap obs.Snapshot
		var buf bytes.Buffer
		if err := get(st.client, st.base+"/metrics", &buf); err != nil {
			return roundStats{}, err
		}
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			return roundStats{}, fmt.Errorf("decode /metrics: %w", err)
		}
		c := snap.Counters
		tr.set("server.rejected", float64(c["server_sweeps_rejected_overload"]+
			c["server_sweeps_rejected_invalid"]+c["server_sweeps_rejected_too_large"]), "count")
		tr.set("server.jobs_coalesced", float64(c["server_jobs_coalesced"]), "count")
		tr.set("sweep.batch_jobs", float64(c["sweep_batch_jobs"]), "count")
		tr.set("sweep.batch_fallbacks", float64(c["sweep_batch_fallbacks"]), "count")
		var sub, first, str []time.Duration
		for j, t := range times {
			sub, first, str = append(sub, t.submit), append(first, t.firstLine), append(str, t.stream)
			tr.roots += lats[j]
			s.lats += lats[j]
		}
		tr.set("server.submit_ms_p50", quantile(durations(sub, time.Millisecond), 0.5), "ms")
		tr.set("server.first_line_ms_p50", quantile(durations(first, time.Millisecond), 0.5), "ms")
		tr.set("server.stream_ms_p50", quantile(durations(str, time.Millisecond), 0.5), "ms")
		s.bodies, s.streams = st.bodies, streams
	}

	if msg := e.checkDigest("serve-loop", s.pinned, hex.EncodeToString(rd.h.Sum(nil))); msg != "" {
		fmt.Fprintf(e.stderr, "perfbench: serve-loop: %s\n", msg)
		ops.failed = ops.attempted
	}
	return roundStats{setup: setup, wall: wall, units: units, sweeps: lats,
		steps: serveUnit * st.steps / uint64(len(st.bodies)), ops: ops}, nil
}

// streamReader reads result streams without allocating per line: it
// hashes every line into h, in order, and checks that line i of a
// sweep is the result of job i. It keeps the lines only when keep is
// set, for the traced run's replay.
type streamReader struct {
	br   *bufio.Reader
	h    hash.Hash
	keep bool
}

// sweep submits one grid and reads its result stream to the end.
func (rd *streamReader) sweep(client *http.Client, base string, body []byte) (lines [][]byte, t sweepTimes, err error) {
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, t, err
	}
	var ack struct {
		Jobs       int    `json:"jobs"`
		ResultsURL string `json:"results_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, t, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err != nil {
		return nil, t, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	t.submit = t1.Sub(t0)

	resp, err = client.Get(base + ack.ResultsURL)
	if err != nil {
		return nil, t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, t, fmt.Errorf("results: status %d", resp.StatusCode)
	}
	rd.br.Reset(resp.Body)
	var first time.Time
	n := 0
	var prefix [32]byte
	for {
		line, rerr := rd.br.ReadSlice('\n')
		if len(line) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			rd.h.Write(line)
			want := strconv.AppendInt(append(prefix[:0], `{"v":1,"index":`...), int64(n), 10)
			if err == nil && !bytes.HasPrefix(line, append(want, ',')) {
				err = fmt.Errorf("line %d is not the result of job %d: %.60s", n, n, line)
			}
			if rd.keep {
				lines = append(lines, bytes.Clone(line))
			}
			n++
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return lines, t, rerr
		}
	}
	t2 := time.Now()
	if first.IsZero() {
		first = t2
	}
	t.firstLine, t.stream = first.Sub(t1), t2.Sub(first)
	if err == nil && n != ack.Jobs {
		err = fmt.Errorf("%d result lines for %d jobs", n, ack.Jobs)
	}
	return lines, t, err
}

// get fetches url into w and fails on any status but 200.
func get(client *http.Client, url string, w io.Writer) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// layers replays what the server did for each traced sweep: decode
// the grid, run it through the sweep engine as the server's executor
// does (one worker, family batching, replica batching, one canonical
// line encoded per result), and re-draw the schedules. Every replayed
// line must equal the streamed one. What the replays do not cover of
// the client-side latency is the server's own time: HTTP, admission,
// and the stream.
func (s *serveWorkload) layers(e *env, tr *trace) error {
	var (
		decode, encode, runWall, jobTime time.Duration
		results                          []sweep.Result
		elapsed                          []time.Duration
		steps, window, completions       uint64
	)
	for j, body := range s.bodies {
		t0 := time.Now()
		grid, err := api.DecodeGrid(bytes.NewReader(body))
		if err != nil {
			return err
		}
		decode += time.Since(t0)
		lines := make([][]byte, len(grid.Jobs))
		cfg := sweep.Config{
			Jobs: grid.SweepJobs(), Seed: grid.Seed, Workers: 1,
			Cache: sweep.NewChainCache(), BatchFamilies: true,
			ReplicaBatch: replicaBatch, Registry: obs.NewRegistry(),
			OnResult: func(r sweep.Result) {
				t0 := time.Now()
				b, err := api.MarshalResult(api.ResultFromSweep(r))
				if err == nil {
					lines[r.Index] = append(b, '\n')
				}
				encode += time.Since(t0)
			},
		}
		t0 = time.Now()
		res, err := sweep.Run(cfg)
		runWall += time.Since(t0)
		if err != nil {
			return err
		}
		for i, line := range lines {
			if i >= len(s.streams[j]) || !bytes.Equal(line, s.streams[j][i]) {
				fmt.Fprintf(e.stderr, "perfbench: serve-loop: sweep %d line %d: streamed bytes differ from a local sweep of the same grid\n", j, i)
				tr.failed++
				break
			}
		}
		for _, r := range res {
			jobTime += r.Elapsed
			elapsed = append(elapsed, r.Elapsed)
			steps += pointSteps(r.Job)
			window += r.Job.Steps
			completions += r.Latencies.Completions
		}
		results = append(results, res...)
	}
	schedTime, draws, err := replaySched(results, true)
	if err != nil {
		return err
	}
	overhead := runWall - jobTime - encode
	points := float64(len(results))

	tr.self["sched"] = schedTime
	tr.self["machine"] = jobTime - schedTime
	tr.self["sweep"] = overhead
	tr.self["api"] = decode + encode
	tr.self["server"] = s.lats - runWall - decode

	var bytesOut int
	for _, st := range s.streams {
		for _, l := range st {
			bytesOut += len(l)
		}
	}
	tr.set("sched.draw_ns", float64(schedTime)/float64(draws), "ns")
	tr.set("sched.share", schedTime.Seconds()/jobTime.Seconds(), "ratio")
	tr.set("machine.step_ns", float64(jobTime-schedTime)/float64(steps), "ns")
	tr.set("machine.steps", float64(steps), "count")
	tr.set("scu.completions_per_kstep", 1000*float64(completions)/float64(window), "1/kstep")
	ms := durations(elapsed, time.Millisecond)
	tr.set("sweep.job_p50_ms", quantile(ms, 0.5), "ms")
	tr.set("sweep.job_p90_ms", quantile(ms, 0.9), "ms")
	tr.set("sweep.overhead_s", overhead.Seconds(), "s")
	tr.set("api.encode_us", float64(encode)/1e3/points, "us")
	tr.set("api.bytes_per_result", float64(bytesOut)/points, "B")
	tr.set("api.decode_us", float64(decode)/1e3/float64(len(s.bodies)), "us")
	return nil
}
