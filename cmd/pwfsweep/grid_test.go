package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwf/internal/server"
)

// gridJSON is a grid file as a client POSTs it to pwfserve: an exact
// job, a crash job, a sticky job, and parameters the axis flags cannot
// set.
const gridJSON = `{"v":1,"seed":5,"jobs":[
 {"workload":{"kind":"fetchinc"},"n":4,"sched":"uniform","steps":20000,"warmup_fraction":0.1,"exact":true},
 {"workload":{"kind":"scu","q":1,"s":2},"n":6,"sched":"roundrobin","steps":20000,"warmup_fraction":0.1,"crash":2},
 {"workload":{"kind":"stack","pool_size":8},"n":3,"sched":"sticky:0.5","steps":20000,"warmup_fraction":0},
 {"workload":{"kind":"parallel","q":3},"n":2,"sched":{"kind":"lottery","tickets":[1,3]},"steps":20000,"warmup_fraction":0.2}
]}`

func writeGrid(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// pwfsweep -grid f prints exactly the stream pwfserve serves for the
// same file.
func TestGridMatchesServerStream(t *testing.T) {
	var got, errOut bytes.Buffer
	if err := run([]string{"-grid", writeGrid(t, gridJSON), "-progress=false"}, &got, &errOut); err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(gridJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	stream, err := http.Get(ts.URL + "/v1/sweeps/s1/results")
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(stream.Body)
	stream.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(want), "\n") != 4 {
		t.Fatalf("server streamed %q, want 4 lines", want)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("pwfsweep -grid differs from the pwfserve stream:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

// -grid replaces the axis flags, -crash and -exact; setting any of
// them alongside it is an error rather than a silent override.
func TestRunGridExcludesGridFlags(t *testing.T) {
	grid := writeGrid(t, gridJSON)
	for _, f := range [][]string{
		{"-algos", "scu"}, {"-scheds", "uniform"}, {"-n", "4"}, {"-seeds", "1"},
		{"-steps", "1000"}, {"-warmup", "0.1"}, {"-seed", "1"}, {"-crash", "0"},
		{"-exact"},
	} {
		var out, errOut bytes.Buffer
		err := run(append([]string{"-grid", grid}, f...), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "-grid replaces "+f[0]) {
			t.Errorf("-grid with %v: got %v, want an error naming %s", f, err, f[0])
		}
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-grid", writeGrid(t, `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"parallel"},"n":2,"steps":100}]}`)}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "job 0") {
		t.Errorf("parallel without q: got %v, want an error naming job 0", err)
	}
}

// A grid file whose workload parameters are out of range fails before
// any point runs or any checkpoint header binds it.
func TestRunGridRejectsOutOfRangeWorkloads(t *testing.T) {
	for _, tc := range []struct{ workload, want string }{
		{`{"kind":"scu","q":-1,"s":1}`, "got Q=-1 S=1"},
		{`{"kind":"scu"}`, "got Q=0 S=0"},
	} {
		grid := writeGrid(t, `{"v":1,"seed":1,"jobs":[{"workload":`+tc.workload+`,"n":2,"steps":100}]}`)
		ckpt := filepath.Join(t.TempDir(), "grid.ckpt")
		var out, errOut bytes.Buffer
		err := run([]string{"-grid", grid, "-checkpoint", ckpt, "-progress=false"}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "job 0") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming job 0 and %q", tc.workload, err, tc.want)
		}
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Errorf("%s: checkpoint written for a rejected grid (%v)", tc.workload, err)
		}
	}
}

// A -grid checkpoint is bound to its grid exactly like a flag-built
// one: a run stopped partway resumes to the uninterrupted bytes, and
// the same checkpoint refuses another grid.
func TestRunGridResumeReproducesBytes(t *testing.T) {
	grid := writeGrid(t, gridJSON)
	ckpt := filepath.Join(t.TempDir(), "grid.ckpt")
	base := []string{"-grid", grid, "-progress=false", "-replica-batch", "1", "-checkpoint", ckpt}
	var full, errOut bytes.Buffer
	if err := run(base, &full, &errOut); err != nil {
		t.Fatal(err)
	}

	// Keep the header and two points: what a run killed after its
	// second commit leaves.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(ckpt, bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	errOut.Reset()
	if err := run(append(base, "-resume"), &resumed, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "2 of 4 points already complete") {
		t.Errorf("resume did not restore two points:\n%s", errOut.String())
	}
	if !bytes.Equal(full.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed -grid run differs:\n got: %s\nwant: %s", resumed.Bytes(), full.Bytes())
	}

	other := writeGrid(t, strings.Replace(gridJSON, `"seed":5`, `"seed":6`, 1))
	err = run([]string{"-grid", other, "-progress=false", "-checkpoint", ckpt, "-resume"}, &resumed, &errOut)
	if err == nil || !strings.Contains(err.Error(), "grid mismatch") {
		t.Errorf("other grid on a -grid checkpoint: got %v, want a grid-mismatch error", err)
	}
}

// An -out that cannot be created fails the run before its first point
// commits.
func TestRunUnwritableOutFailsFirst(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "grid.ckpt")
	args := []string{"-algos", "scu", "-scheds", "uniform", "-n", "4,8", "-seeds", "50",
		"-steps", "200000", "-progress=false", "-checkpoint", ckpt,
		"-out", filepath.Join(dir, "nosuchdir", "r.ndjson")}
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err == nil || !os.IsNotExist(err) {
		t.Fatalf("got %v, want a no-such-directory error", err)
	}
	if n := countRecords(ckpt); n != 0 {
		t.Errorf("checkpoint holds %d records; the run should have failed before any point", n)
	}
}

// A run that fails leaves an existing -out byte for byte as it was,
// and no temporary file beside it.
func TestRunFailureLeavesOutUntouched(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "r.ndjson")
	old := []byte("results of an earlier run\n")
	if err := os.WriteFile(outPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "grid.ckpt")
	var out, errOut bytes.Buffer
	if err := run(point("-steps", "1000", "-checkpoint", ckpt), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	failing := [][]string{
		// The checkpoint belongs to another grid.
		point("-steps", "1000", "-seed", "2", "-checkpoint", ckpt, "-resume", "-out", outPath),
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		// Every point runs, then the trace cannot be written.
		failing = append(failing, point("-steps", "1000", "-trace", "/dev/full", "-out", outPath))
	}
	for _, args := range failing {
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("run(%v) succeeded", args)
		}
		if got, err := os.ReadFile(outPath); err != nil || !bytes.Equal(got, old) {
			t.Errorf("run(%v) changed -out: %q, %v", args, got, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 2 {
			t.Errorf("run(%v) left %d files in the directory, want 2", args, len(entries))
		}
	}
}

// An -out that is not a regular file is written in place: a device
// stays a device, and a symlink stays a link whose target gets the
// results.
func TestRunOutWritesThroughNonRegularFiles(t *testing.T) {
	var want, errOut bytes.Buffer
	if err := run(point("-steps", "1000"), &want, &errOut); err != nil {
		t.Fatal(err)
	}

	if err := run(point("-steps", "1000", "-out", os.DevNull), io.Discard, &errOut); err != nil {
		t.Fatalf("-out %s: %v", os.DevNull, err)
	}
	if fi, err := os.Lstat(os.DevNull); err != nil || fi.Mode()&os.ModeDevice == 0 {
		t.Fatalf("%s is no longer a device after the run: %v, %v", os.DevNull, fi, err)
	}

	dir := t.TempDir()
	target, link := filepath.Join(dir, "target.ndjson"), filepath.Join(dir, "link.ndjson")
	if err := os.WriteFile(target, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skip("no symlinks here:", err)
	}
	if err := run(point("-steps", "1000", "-out", link), io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("-out %s replaced the symlink: %v, %v", link, fi, err)
	}
	if got, err := os.ReadFile(target); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("symlink target holds %q, %v; want %q", got, err, want.Bytes())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("the run left %d files in the directory, want 2", len(entries))
	}
}

// A regular -out keeps its permissions, and a temporary file that a
// killed run left beside it is replaced and then gone.
func TestRunOutKeepsModeAndReplacesLeftover(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "r.ndjson")
	leftover := filepath.Join(dir, ".r.ndjson.partial")
	if err := os.WriteFile(outPath, []byte("old\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leftover, []byte("a killed run's partial results\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var want, errOut bytes.Buffer
	if err := run(point("-steps", "1000"), &want, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run(point("-steps", "1000", "-out", outPath), io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(outPath); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-out holds %q, %v; want %q", got, err, want.Bytes())
	}
	if fi, err := os.Stat(outPath); err != nil || fi.Mode().Perm() != 0o600 {
		t.Errorf("-out mode is %v, %v; want -rw-------", fi.Mode().Perm(), err)
	}
	if _, err := os.Lstat(leftover); !os.IsNotExist(err) {
		t.Errorf("the leftover temporary file is still there: %v", err)
	}
}
