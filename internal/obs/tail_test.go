package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tailGet reads a whole tail stream and returns its lines.
func tailGet(t *testing.T, srv *httptest.Server, cursor string) (*http.Response, []string) {
	t.Helper()
	url := srv.URL
	if cursor != "" {
		url += "?cursor=" + cursor
	}
	resp, err := srv.Client().Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// schedLines returns the lines the tail serves for sched events at
// steps from..to, with pid(step) as the pid: json.Marshal of each.
func schedLines(t *testing.T, from, to int, pid func(step int) int) []string {
	t.Helper()
	var lines []string
	for i := from; i <= to; i++ {
		b, err := json.Marshal(Event{Kind: KindSched, Step: uint64(i), PID: pid(i)})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	return lines
}

// checkLines fails unless got is want, line for line.
func checkLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d:\n%s", what, len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

func samePID(step int) int { return step }
func pidZero(int) int      { return 0 }

func TestTraceTailerCursorResume(t *testing.T) {
	reg := NewRegistry()
	tail := NewTraceTailer(64, reg)
	srv := httptest.NewServer(tail.Handler())
	defer srv.Close()

	for i := 1; i <= 10; i++ {
		tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: i})
	}
	tail.Close()

	// First read from the start: all 10 events, no duplicates.
	resp, lines := tailGet(t, srv, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Cursor"); got != "0" {
		t.Errorf("X-Trace-Cursor = %q, want 0", got)
	}
	checkLines(t, "from the start", lines, schedLines(t, 1, 10, samePID))

	// Resume mid-stream: exactly the suffix, no gap and no overlap.
	_, rest := tailGet(t, srv, "6")
	checkLines(t, "resume at 6", rest, schedLines(t, 7, 10, samePID))

	// Resuming at the end of a closed trace yields an empty 200.
	resp, none := tailGet(t, srv, "10")
	if resp.StatusCode != http.StatusOK || len(none) != 0 {
		t.Fatalf("resume at end: status %d, %d events", resp.StatusCode, len(none))
	}

	if got := reg.Snapshot().Counters["trace_tail_streams"]; got != 3 {
		t.Errorf("trace_tail_streams = %d, want 3", got)
	}
}

func TestTraceTailerBadAndExpiredCursors(t *testing.T) {
	tail := NewTraceTailer(4, NewRegistry())
	srv := httptest.NewServer(tail.Handler())
	defer srv.Close()

	for i := 1; i <= 10; i++ { // ring holds only events 7..10
		tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: 0})
	}
	tail.Close()

	if resp, _ := tailGet(t, srv, "banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage cursor: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := tailGet(t, srv, "99"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("future cursor: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := tailGet(t, srv, "2"); resp.StatusCode != http.StatusGone {
		t.Errorf("expired cursor: status %d, want 410 Gone", resp.StatusCode)
	}
	// With no cursor the stream starts at the oldest retained event —
	// the ring evicted 1..6.
	resp, lines := tailGet(t, srv, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Cursor"); got != "6" {
		t.Errorf("X-Trace-Cursor = %q, want 6", got)
	}
	checkLines(t, "no cursor", lines, schedLines(t, 7, 10, pidZero))
}

func TestTraceTailerLastEventIDHeader(t *testing.T) {
	tail := NewTraceTailer(64, NewRegistry())
	srv := httptest.NewServer(tail.Handler())
	defer srv.Close()
	for i := 1; i <= 5; i++ {
		tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: 0})
	}
	tail.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Last-Event-ID", "3")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := strings.Join(schedLines(t, 4, 5, pidZero), "\n") + "\n"
	if string(body) != want {
		t.Fatalf("Last-Event-ID resume:\n%s\nwant\n%s", body, want)
	}
}

// TestTraceTailerLiveStream drives a recorder concurrently with a
// reading client: the stream must deliver every event exactly once, in
// order, and terminate when the tailer closes.
func TestTraceTailerLiveStream(t *testing.T) {
	const total = 5000
	tail := NewTraceTailer(2*total, NewRegistry())
	srv := httptest.NewServer(tail.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: i % 8})
			if i%100 == 0 {
				time.Sleep(time.Microsecond) // let the reader interleave
			}
		}
		tail.Close()
	}()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkLines(t, "live stream", lines, schedLines(t, 1, total, func(i int) int { return i % 8 }))
}

// TestTraceTailerMidStreamGap forces a connected-but-stalled client
// past the ring: the stream must end with an explicit expiry marker
// rather than resuming with a silent hole.
func TestTraceTailerMidStreamGap(t *testing.T) {
	tail := NewTraceTailer(4, NewRegistry())
	for i := 1; i <= 4; i++ {
		tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: 0})
	}
	// Ask for cursor 0 while it is still valid, then overrun the ring
	// before the handler's next poll by recording from within the
	// response writer, which runs after the first batch is served.
	req := httptest.NewRequest(http.MethodGet, "/?cursor=0", nil)
	rec := &gapRecorder{tail: tail, inner: httptest.NewRecorder()}
	tail.Handler().ServeHTTP(rec, req)
	body := rec.inner.Body.String()
	if !strings.Contains(body, "expired") {
		t.Fatalf("mid-stream overrun did not surface an expiry marker:\n%s", body)
	}
}

// gapRecorder overruns the tailer's ring as a side effect of the first
// write, simulating a client that reads slower than the run records.
type gapRecorder struct {
	tail  *TraceTailer
	inner *httptest.ResponseRecorder
	once  sync.Once
}

func (g *gapRecorder) Header() http.Header { return g.inner.Header() }

func (g *gapRecorder) WriteHeader(code int) { g.inner.WriteHeader(code) }

func (g *gapRecorder) Write(p []byte) (int, error) {
	n, err := g.inner.Write(p)
	g.once.Do(func() {
		for i := 100; i < 120; i++ {
			g.tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: 0})
		}
	})
	return n, err
}

func TestTraceTailerEvictionMetric(t *testing.T) {
	reg := NewRegistry()
	tail := NewTraceTailer(8, reg)
	for i := 0; i < 20; i++ {
		tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: 0})
	}
	if got := reg.Snapshot().Counters["trace_tail_evicted"]; got != 12 {
		t.Errorf("trace_tail_evicted = %d, want 12", got)
	}
	if oldest, seq := tail.bounds(); oldest != 12 || seq != 20 {
		t.Errorf("bounds = [%d, %d), want [12, 20)", oldest, seq)
	}
}

func TestServeDebugMountsTraceTail(t *testing.T) {
	reg := NewRegistry()
	tail := NewTraceTailer(16, reg)
	tail.Record(Event{Kind: KindSched, Step: 1, PID: 0})
	tail.Close()
	addr, stop, err := ServeDebug("127.0.0.1:0", reg, WithTraceTail(tail))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop() }()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/trace/tail", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if want := "{\"kind\":\"sched\",\"step\":1,\"pid\":0}\n"; string(body) != want {
		t.Fatalf("tail body:\n%s\nwant\n%s", body, want)
	}

	// Without WithTraceTail the route must not exist.
	addr2, stop2, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop2() }()
	resp2, err := http.Get(fmt.Sprintf("http://%s/debug/trace/tail", addr2))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted tail route: status %d, want 404", resp2.StatusCode)
	}
}

// TestTraceTailerConcurrentRecordClose is a -race check on the
// tailer's locking: records, closes, and bounds reads from many
// goroutines.
func TestTraceTailerConcurrentRecordClose(t *testing.T) {
	tail := NewTraceTailer(32, NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tail.Record(Event{Kind: KindSched, Step: uint64(i), PID: pid})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			tail.Seq()
			tail.bounds()
		}
	}()
	wg.Wait()
	tail.Close()
	tail.Record(Event{Kind: KindSched, Step: 1, PID: 0}) // dropped, no panic
	if seq := tail.Seq(); seq != 4000 {
		t.Fatalf("seq = %d, want 4000 (post-close record must be dropped)", seq)
	}
}

// TestTraceTailerUnknownKindTakesOneLine is a regression test: the
// handler used to skip an event it could not marshal without moving
// its cursor, so the next event was served twice. The unmarshalable
// event must take its position's line, an in-band error naming the
// position, and end the stream; a client resuming past it gets the
// next event once.
func TestTraceTailerUnknownKindTakesOneLine(t *testing.T) {
	tail := NewTraceTailer(8, NewRegistry())
	srv := httptest.NewServer(tail.Handler())
	defer srv.Close()
	tail.Record(Event{Kind: 200})
	tail.Record(Event{Kind: KindSched, Step: 1, PID: 0})
	tail.Close()

	_, lines := tailGet(t, srv, "")
	checkLines(t, "from the start", lines, []string{
		`{"error":"trace tail event 0: json: error calling MarshalJSON for type obs.Event: obs: marshal unknown event kind 200"}`,
	})
	_, rest := tailGet(t, srv, "1")
	checkLines(t, "resume at 1", rest, schedLines(t, 1, 1, pidZero))
}
