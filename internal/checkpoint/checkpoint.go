// Package checkpoint is the crash-safe persistence layer under
// resumable sweeps: an append-only, fsync-batched log of completed
// sweep points in the canonical internal/api Result encoding, under a
// single-line header that holds the sweep's grid itself, so the file
// alone is enough to resume or re-serve the sweep.
//
// # File format
//
// The file is NDJSON. Line 1 is the header:
//
//	{"v":2,"format":"pwf-checkpoint","grid":<api.Grid>}
//
// where the grid is the canonical api encoding of the sweep's points
// (replicas expanded, so grid job i is point i) and master seed. Every
// following line is one canonical api.Result (schema v1, no
// wall-clock fields), exactly the bytes pwfserve streams and pwfsweep
// writes for the same point. Records append in completion order;
// point indices, not file order, key the restore.
//
// # Atomicity and crash safety
//
// The header is created via temp file + fsync + atomic rename (plus a
// directory fsync), so a file that exists at the checkpoint path
// always carries a complete, valid header — a crash during creation
// leaves only a stale temp file, never a half-written checkpoint.
// Records are appended with batched fsyncs (every Options.FlushEvery
// commits and on Close). A SIGKILL at any byte therefore leaves a
// loadable prefix: complete '\n'-terminated lines are restored, a
// torn final line (no trailing newline) is discarded and overwritten
// by the next append. An append that fails part-way (a full disk, a
// file-size limit) is truncated back to the last whole record before
// the error returns, so a later successful append still lands on a
// record boundary; if that truncation fails too, the Log refuses every
// later commit with the append's error. A failed fsync poisons the Log
// the same way: the kernel may already have dropped the dirty pages it
// could not write, so a later fsync that succeeds proves nothing about
// earlier records, and every later Commit, Sync and Close returns the
// sync error. A '\n'-terminated line that fails to decode is real
// corruption and fails the load loudly, as does a header whose grid is
// not the sweep being resumed (ErrGridMismatch).
//
// Because sweep point i always draws from rng.Stream(seed, i),
// restoring the completed set and executing only the remainder yields
// canonical output byte-identical to an uninterrupted run — the
// property the cmd/pwfsweep kill-and-resume harness test pins.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"pwf/internal/api"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// Format is the header's format discriminator.
const Format = "pwf-checkpoint"

// Version is the checkpoint header version this package speaks; files
// of any other version, v1 included, are refused.
const Version = 2

// headerPrefix opens every header line; the canonical grid and "}\n"
// close it. Joining the bytes, rather than marshaling a struct around
// the encoded grid, spares a re-scan of a grid that can run to
// hundreds of kilobytes.
var headerPrefix = fmt.Sprintf(`{"v":%d,"format":%q,"grid":`, Version, Format)

// DefaultFlushEvery is the default fsync batch: one durability point
// per this many commits (and always on Close). Batching trades at
// most a batch of re-executable points on power loss for not paying
// an fsync per point on million-job runs.
const DefaultFlushEvery = 64

// ErrGridMismatch marks a checkpoint that does not belong to the
// sweep being resumed: a different master seed, point count, or job at
// some point. Match with errors.Is.
var ErrGridMismatch = errors.New("checkpoint: grid mismatch")

// ErrCorrupt marks a checkpoint whose interior (not its torn tail) is
// undecodable. Match with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// Meta is the header line binding a checkpoint to its sweep.
type Meta struct {
	V      int    `json:"v"`
	Format string `json:"format"`
	// Grid is the sweep's identity: its points, in order, and its
	// master seed. Point i draws from rng.Stream(Grid.Seed, i).
	Grid api.Grid `json:"grid"`
}

// Options tune a Log. The zero value selects every default.
type Options struct {
	// FlushEvery is the fsync batch size in commits; 0 selects
	// DefaultFlushEvery, negative fsyncs on every commit.
	FlushEvery int
	// Registry receives the checkpoint_* counters (points written and
	// restored, bytes written, fsyncs); nil selects obs.Default.
	Registry *obs.Registry
}

// Log is the file-backed sweep.Checkpoint. Commit is safe for
// concurrent use by sweep workers; Restore is called by sweep.Run
// before any worker starts.
type Log struct {
	mu         sync.Mutex
	f          *os.File
	path       string
	restored   map[int]sweep.Result
	size       int64 // bytes of header and whole records in the file
	sinceSync  int
	flushEvery int
	closed     bool
	failed     error // a failed fsync, or an append that could not be rolled back

	mWritten  *obs.Counter
	mRestored *obs.Counter
	mBytes    *obs.Counter
	mSyncs    *obs.Counter
}

// Open creates the checkpoint at path for cfg's grid, or — if the
// file already exists — loads it, validating that its header binds
// exactly this sweep's points and seed (ErrGridMismatch otherwise) and
// restoring every complete record; a torn final line is discarded and
// truncated away so appends resume on a clean prefix. The returned
// Log is ready to pass as sweep.Config.Checkpoint. Callers that want
// "refuse to overwrite" semantics (pwfsweep without -resume) stat the
// path before calling. A config sweep.Run would refuse is refused here
// before the file system is touched, so an invalid grid leaves no
// checkpoint behind to block its corrected rerun.
func Open(path string, cfg sweep.Config, opts Options) (*Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.FlushEvery == 0 {
		opts.FlushEvery = DefaultFlushEvery
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default
	}
	points := sweep.Points(cfg)
	grid := api.Grid{V: api.Version, Seed: cfg.Seed, Jobs: make([]api.Job, len(points))}
	for i, p := range points {
		grid.Jobs[i] = api.JobFromSweep(p)
	}
	enc, err := api.MarshalGrid(grid)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode grid: %w", err)
	}
	header := make([]byte, 0, len(headerPrefix)+len(enc)+2)
	header = append(append(append(header, headerPrefix...), enc...), "}\n"...)
	l := &Log{
		path:       path,
		restored:   make(map[int]sweep.Result),
		flushEvery: opts.FlushEvery,
		mWritten:   reg.Counter("checkpoint_points_written"),
		mRestored:  reg.Counter("checkpoint_points_restored"),
		mBytes:     reg.Counter("checkpoint_bytes_written"),
		mSyncs:     reg.Counter("checkpoint_syncs"),
	}
	if _, err := os.Stat(path); err == nil {
		if err := l.load(header, grid); err != nil {
			return nil, err
		}
	} else if errors.Is(err, os.ErrNotExist) {
		if err := l.create(header); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("checkpoint: stat %s: %w", path, err)
	}
	return l, nil
}

// create writes the header line to a temp file and renames it into
// place, so the checkpoint path never holds a headerless file.
func (l *Log) create(header []byte) error {
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(l.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: create: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(header); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: sync header: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// The header is in place but its name may not survive a power
		// loss; take it away again so a failed Open leaves nothing.
		tmp.Close()
		os.Remove(l.path)
		return fmt.Errorf("checkpoint: sync dir %s: %w", dir, err)
	}
	// The renamed fd stays valid for appends; no reopen needed.
	l.f = tmp
	l.size = int64(len(header))
	l.mBytes.Add(uint64(len(header)))
	l.mSyncs.Inc()
	return nil
}

// load reads an existing checkpoint: validation of its header against
// this sweep's (header, the line a fresh checkpoint of grid carries),
// record restore, torn-tail truncation, and reopening for append.
func (l *Log) load(header []byte, grid api.Grid) error {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("checkpoint: read %s: %w", l.path, err)
	}
	_, recs, validLen, err := parse(l.path, data, header, grid)
	if err != nil {
		return err
	}
	for _, res := range recs {
		l.restored[res.Index] = res.Sweep()
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: reopen %s: %w", l.path, err)
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: truncate torn tail of %s: %w", l.path, err)
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: seek %s: %w", l.path, err)
	}
	l.f = f
	l.size = int64(validLen)
	l.mRestored.Add(uint64(len(l.restored)))
	return nil
}

// parse decodes the bytes of the checkpoint file at path (named in
// errors): the header, which must carry this package's format and
// version and, when header is non-nil, be byte for byte that line —
// the header of grid's sweep (ErrGridMismatch otherwise); then every
// complete record line, in file order, each of which must be a
// current-version result for a point of the file's grid not seen
// before. A torn final line (no trailing newline) is not a record:
// validLen is the length of the loadable prefix before it. Every other
// defect is ErrCorrupt.
func parse(path string, data, header []byte, grid api.Grid) (meta Meta, recs []api.Result, validLen int, err error) {
	fail := func(format string, args ...any) (Meta, []api.Result, int, error) {
		return Meta{}, nil, 0, corrupt(path, format, args...)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fail("has no complete header line")
	}
	if header != nil && bytes.Equal(data[:nl+1], header) {
		meta = Meta{V: Version, Format: Format, Grid: grid}
	} else {
		if meta, err = parseHeader(path, data[:nl]); err != nil {
			return Meta{}, nil, 0, err
		}
		if header != nil {
			return Meta{}, nil, 0, fmt.Errorf("%w: %s belongs to another sweep (%s); refusing to mix results across grids",
				ErrGridMismatch, path, difference(meta.Grid, grid))
		}
	}
	seen := make(map[int]bool)
	validLen = nl + 1
	rest := data[nl+1:]
	for len(rest) > 0 {
		eol := bytes.IndexByte(rest, '\n')
		if eol < 0 {
			// Torn tail from a crash mid-append: discard.
			break
		}
		var res api.Result
		if err := json.Unmarshal(rest[:eol], &res); err != nil {
			return fail("record at byte %d: %v", validLen, err)
		}
		if res.V != api.Version {
			return fail("record has v=%d (this build speaks v%d)", res.V, api.Version)
		}
		if res.Index < 0 || res.Index >= len(meta.Grid.Jobs) {
			return fail("record index %d out of [0, %d)", res.Index, len(meta.Grid.Jobs))
		}
		if seen[res.Index] {
			return fail("holds point %d twice (two writers?)", res.Index)
		}
		seen[res.Index] = true
		recs = append(recs, res)
		validLen += eol + 1
		rest = rest[eol+1:]
	}
	return meta, recs, validLen, nil
}

// parseHeader decodes the header line of the checkpoint file at path,
// without its newline: it must carry this package's format and version
// and a grid that decodes as strictly as a pwfserve submission. Every
// defect is ErrCorrupt.
func parseHeader(path string, line []byte) (Meta, error) {
	var h struct {
		V      int             `json:"v"`
		Format string          `json:"format"`
		Grid   json.RawMessage `json:"grid"`
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return Meta{}, corrupt(path, "header: %v", err)
	}
	if h.V != Version || h.Format != Format {
		return Meta{}, corrupt(path, "is %q v%d (this build speaks %q v%d)", h.Format, h.V, Format, Version)
	}
	grid, err := api.DecodeGrid(bytes.NewReader(h.Grid))
	if err != nil {
		return Meta{}, corrupt(path, "header grid: %v", err)
	}
	return Meta{V: h.V, Format: h.Format, Grid: grid}, nil
}

// corrupt returns an ErrCorrupt error about the file at path.
func corrupt(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s "+format, append([]any{ErrCorrupt, path}, args...)...)
}

// difference names the first way a checkpoint's grid differs from the
// sweep's: the master seed, the point count, or the first point whose
// job differs.
func difference(file, sweep api.Grid) string {
	if file.Seed != sweep.Seed {
		return fmt.Sprintf("its master seed is %d, this sweep's is %d", file.Seed, sweep.Seed)
	}
	if len(file.Jobs) != len(sweep.Jobs) {
		return fmt.Sprintf("it has %d points, this sweep has %d", len(file.Jobs), len(sweep.Jobs))
	}
	for i := range file.Jobs {
		have, _ := json.Marshal(file.Jobs[i])
		mine, _ := json.Marshal(sweep.Jobs[i])
		if !bytes.Equal(have, mine) {
			return fmt.Sprintf("its point %d is %s, this sweep's is %s", i, have, mine)
		}
	}
	return "its header is not in canonical encoding"
}

// Restored returns the number of points loaded from the file.
func (l *Log) Restored() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.restored)
}

// Restore implements sweep.Checkpoint.
func (l *Log) Restore(i int) (sweep.Result, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, ok := l.restored[i]
	return res, ok
}

// Commit implements sweep.Checkpoint: one canonical api.Result line
// appended, with an fsync every flushEvery commits. A failed append is
// truncated away before Commit returns (see the package comment).
func (l *Log) Commit(r sweep.Result) error {
	line, err := api.MarshalResultLine(api.ResultFromSweep(r))
	if err != nil {
		return fmt.Errorf("checkpoint: encode point %d: %w", r.Index, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return errors.New("checkpoint: commit after Close")
	}
	if _, err := l.f.Write(line); err != nil {
		err = l.fileErr(fmt.Sprintf("append point %d to", r.Index), err)
		if rerr := l.rollback(); rerr != nil {
			l.failed = err
			return fmt.Errorf("%w (and could not truncate the partial record: %v)", err, rerr)
		}
		return err
	}
	l.size += int64(len(line))
	l.mWritten.Inc()
	l.mBytes.Add(uint64(len(line)))
	l.sinceSync++
	if l.flushEvery < 0 || l.sinceSync >= l.flushEvery {
		return l.sync()
	}
	return nil
}

// sync fsyncs the file. A failure poisons the Log (see the package
// comment). Called with l.mu held.
func (l *Log) sync() error {
	if err := l.f.Sync(); err != nil {
		l.failed = l.fileErr("sync", err)
		return l.failed
	}
	l.mSyncs.Inc()
	l.sinceSync = 0
	return nil
}

// rollback cuts a partly written record off the end of the file and
// moves the write offset back to the end of the last whole record.
func (l *Log) rollback() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// fileErr names the checkpoint path in an error from l.f, which after
// create still carries the name of the temp file renamed into place.
func (l *Log) fileErr(op string, err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		err = pe.Err
	}
	return fmt.Errorf("checkpoint: %s %s: %w", op, l.path, err)
}

// Sync forces any batched appends to durable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.closed || l.sinceSync == 0 {
		return nil
	}
	return l.sync()
}

// Close syncs and closes the file. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.failed
	}
	l.closed = true
	first := l.failed
	if first == nil && l.sinceSync > 0 {
		first = l.sync()
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = l.fileErr("close", err)
	}
	return first
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a checkpoint without binding it to a grid — header plus
// restored results in file order — for inspection. Meta.Grid is the
// header's grid, decoded as strictly as a pwfserve submission. Load
// checks everything Open checks except the binding to a sweep, with
// the same torn-tail tolerance; the file is not opened for writing.
func Load(path string) (Meta, []api.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	meta, recs, _, err := parse(path, data, nil, api.Grid{})
	return meta, recs, err
}

// ReadHeader reads only the header line of the checkpoint at path and
// applies the checks Load applies to it; the records after it are not
// read, so a damaged record surfaces only when the file is opened or
// loaded.
func ReadHeader(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err == io.EOF {
		return Meta{}, corrupt(path, "has no complete header line")
	}
	if err != nil {
		return Meta{}, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return parseHeader(path, line[:len(line)-1])
}
