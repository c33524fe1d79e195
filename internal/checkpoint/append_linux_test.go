package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"pwf/internal/sweep"
)

// A commit that fails part-way must not leave its fragment in front of
// the next commit's line. The file-size limit cuts the second record
// short with EFBIG; after the limit is lifted a third commit succeeds,
// and the file then loads with exactly the two committed points. The
// failure names the checkpoint path, not the temp file that create
// renamed away.
func TestLogRollsBackFailedAppend(t *testing.T) {
	cfg := testConfig()
	results, err := sweep.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Commit(results[0]); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	lowered := limit
	lowered.Cur = uint64(fi.Size()) + 10
	if lowered.Cur > limit.Max {
		t.Skipf("hard file-size limit %d is below %d", limit.Max, lowered.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	err = l.Commit(results[1])
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); rerr != nil {
		t.Fatalf("restore file-size limit: %v", rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("commit past the file-size limit: %v, want EFBIG", err)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || strings.Contains(msg, ".tmp") {
		t.Errorf("commit error %q does not name %s", msg, path)
	}

	if err := l.Commit(results[2]); err != nil {
		t.Fatalf("commit after a failed append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Load(path)
	if err != nil {
		t.Fatalf("Load after a failed append: %v", err)
	}
	if len(recs) != 2 || recs[0].Index != 0 || recs[1].Index != 2 {
		t.Fatalf("Load returned %d records, want points 0 and 2", len(recs))
	}
	re, err := Open(path, cfg, Options{})
	if err != nil {
		t.Fatalf("Open after a failed append: %v", err)
	}
	defer re.Close()
	if re.Restored() != 2 {
		t.Errorf("reopened checkpoint restored %d points, want 2", re.Restored())
	}
}

// A failed fsync poisons the Log. After fsync reports an error the
// kernel may have dropped the dirty pages it could not write, so a
// later fsync that succeeds says nothing about the earlier records.
// The write end of a pipe accepts the record but rejects fsync with
// EINVAL; once the real file is back, the next Commit, Sync and Close
// must still fail with that error, naming the checkpoint path.
func TestLogFailedSyncPoisons(t *testing.T) {
	cfg := testConfig()
	results, err := sweep.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	l, err := Open(path, cfg, Options{FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	real := l.f
	l.f = pw
	syncErr := l.Commit(results[0])
	l.f = real
	if !errors.Is(syncErr, syscall.EINVAL) {
		t.Fatalf("commit with a failing fsync: %v, want EINVAL", syncErr)
	}
	if msg := syncErr.Error(); !strings.Contains(msg, path) {
		t.Errorf("sync error %q does not name %s", msg, path)
	}

	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Commit", func() error { return l.Commit(results[1]) }},
		{"Sync", l.Sync},
		{"Close", l.Close},
		{"Commit after Close", func() error { return l.Commit(results[2]) }},
		{"second Close", l.Close},
	} {
		if err := c.call(); !errors.Is(err, syscall.EINVAL) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s after a failed fsync: %v, want the sync error on %s", c.name, err, path)
		}
	}
}

// A header whose directory entry cannot be synced is not durable, so
// Open must fail rather than report it committed. With the descriptor
// limit one above the lowest free descriptor, create's temp file takes
// the last descriptor and opening the directory for its fsync gets
// EMFILE. Open must name the directory and leave no file behind.
func TestOpenFailsWhenDirSyncFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	// Start the runtime's poller, which needs descriptors of its own,
	// before they run short.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	pr.Close()
	pw.Close()
	probe, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	lowest := probe.Fd()
	probe.Close()

	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &limit); err != nil {
		t.Fatal(err)
	}
	lowered := limit
	lowered.Cur = uint64(lowest) + 1
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lowered); err != nil {
		t.Skipf("cannot lower the descriptor limit: %v", err)
	}
	l, err := Open(path, testConfig(), Options{})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &limit); rerr != nil {
		t.Fatalf("restore descriptor limit: %v", rerr)
	}
	if err == nil {
		l.Close()
		t.Fatal("Open succeeded although the directory fsync could not run")
	}
	if !errors.Is(err, syscall.EMFILE) || !strings.Contains(err.Error(), "checkpoint: sync dir "+dir+": ") {
		t.Fatalf("Open with the directory fsync failing: %v, want EMFILE from checkpoint: sync dir %s", err, dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed Open left %s behind", e.Name())
	}
}
