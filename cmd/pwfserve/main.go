// Command pwfserve runs the sweep engine as an HTTP/JSON service:
// clients submit job grids over the versioned internal/api wire
// schema and stream back canonical NDJSON results that are
// byte-identical to running the same grid locally with the same
// master seed.
//
// Usage:
//
//	pwfserve -addr 127.0.0.1:8080
//
// Submit a grid, stream its results, inspect the server:
//
//	curl -s -d '{"v":1,"seed":1,"jobs":[{"workload":{"kind":"fetchinc"},
//	  "n":8,"steps":100000,"warmup_fraction":0.1,"exact":true}]}' \
//	  http://127.0.0.1:8080/v1/sweeps
//	curl -sN http://127.0.0.1:8080/v1/sweeps/s1/results
//	curl -s  http://127.0.0.1:8080/metrics
//
// Endpoints: POST /v1/sweeps, GET /v1/sweeps/{id},
// GET /v1/sweeps/{id}/results (resumable via ?cursor= or
// Last-Event-ID), /metrics, /healthz, /debug/vars, /debug/pprof/.
//
// Admission is bounded: grids beyond -max-grid jobs and bodies beyond
// -max-body bytes get 413; submissions that would push the queue past
// -max-queue jobs get 429 with a Retry-After header. All errors carry
// a structured JSON body with a stable code. Finished sweeps age out
// of retention; querying an evicted id yields 410 Gone (code "gone").
//
// With -checkpoint-dir, accepted sweeps survive restarts: each sweep
// persists there as one checkpoint holding its grid and completed
// points (format internal/checkpoint), a
// restarted daemon re-enqueues them, already-completed points replay
// from the checkpoint instead of recomputing, and result-stream
// cursors issued before the restart remain valid.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pwf/internal/obs"
	"pwf/internal/server"
	"pwf/internal/sweep"
)

func main() {
	inst, err := start(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwfserve:", err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "pwfserve: shutting down")
	inst.Close()
}

// instance is a started daemon: its bound address and a blocking
// shutdown. Separating start from main keeps the daemon testable —
// the integration test drives a real listener through this.
type instance struct {
	Addr string

	httpSrv *http.Server
	srv     *server.Server
}

// Close stops the listener, then the executor (canceling the running
// sweep at its next job boundary).
func (in *instance) Close() {
	_ = in.httpSrv.Close()
	in.srv.Close()
}

func start(args []string, errOut io.Writer) (*instance, error) {
	fs := flag.NewFlagSet("pwfserve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		maxGrid    = fs.Int("max-grid", 4096, "maximum jobs per submitted grid")
		maxQueue   = fs.Int("max-queue", 16384, "maximum queued-but-unfinished jobs before 429")
		maxBody    = fs.Int64("max-body", 8<<20, "maximum request body bytes")
		workers    = fs.Int("workers", 0, "sweep worker pool size (default GOMAXPROCS)")
		retryAfter = fs.Duration("retry-after", time.Second, "backoff advertised on 429 responses")
		ckptDir    = fs.String("checkpoint-dir", "", "persist sweeps here (one checkpoint per sweep: its grid and completed points) so they survive restarts")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *workers < 0 {
		return nil, fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("-checkpoint-dir: %w", err)
		}
	}

	srv := server.New(server.Config{
		MaxGridJobs:   *maxGrid,
		MaxQueuedJobs: *maxQueue,
		MaxBodyBytes:  *maxBody,
		Workers:       *workers,
		RetryAfter:    *retryAfter,
		CheckpointDir: *ckptDir,
		Registry:      obs.Default,
		Cache:         sweep.DefaultCache,
		Log: func(format string, args ...any) {
			fmt.Fprintf(errOut, "pwfserve: "+format+"\n", args...)
		},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	// No write timeout: result streams legitimately stay open for the
	// life of a long sweep.
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	fmt.Fprintf(errOut, "pwfserve listening on %s\n", ln.Addr())
	return &instance{Addr: ln.Addr().String(), httpSrv: httpSrv, srv: srv}, nil
}
