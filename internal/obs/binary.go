package obs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Trace format v2: a length-prefixed binary framing for Event streams,
// and the only trace file format.
//
// Format v2 packs events into varint-coded binary frames at a few
// bytes per event, optionally compressed frame-by-frame, so tracing
// stays cheap at the paper-scale n=4096 × 10^8-step regime while
// preserving the byte-exact replay guarantee (see
// TestBinaryTraceReplayRoundTrip). JSON is only how a decoded event
// prints (Event.MarshalJSON).
//
// # File layout
//
//	header   8 bytes: "PWFT" magic, version (2), compression, 2×0
//	frame*   uvarint payload length, then payload
//
// Each frame payload is a batch of consecutive events; with gzip
// compression every payload is one self-contained gzip member, so a
// reader never needs more than one frame in memory and a file whose
// tail frame is cut off still yields every complete frame before it
// (chunked reading). Within a frame each event is packed as
//
//	kind     1 byte
//	fields   varints keyed by kind (see the Kind constants):
//	         sched/begin/crash   step pid
//	         cas                 step pid ok
//	         retry/complete      step pid attempts
//	         job_start           job label
//	         job_end             job label elapsed_ns
//
// Step is delta-coded: each frame stores zigzag(step − previous
// event's step), with the previous step reset to 0 at every frame
// boundary so frames stay independently decodable. Labels are a
// uvarint byte length followed by the bytes.
//
// # Compatibility policy
//
// The version byte is the schema version of everything after the
// header. Readers speak exactly traceVersion and reject other
// versions with ErrTraceVersion (mirroring api.ErrVersion), so a v3
// trace fails loudly at open instead of decoding garbage. Additive
// evolution (new kinds, new compression codes) bumps the version.
// The golden header bytes are pinned by TestBinaryTraceGoldenHeader.

// traceMagic identifies a v2 binary trace file.
var traceMagic = [4]byte{'P', 'W', 'F', 'T'}

// traceVersion is the binary trace schema version this package
// encodes and accepts. Version 1 was the headerless NDJSON format,
// since removed; the binary format starts at 2.
const traceVersion = 2

// traceHeaderLen is the fixed byte length of the file header.
const traceHeaderLen = 8

// ErrTraceVersion is returned (wrapped) when a binary trace carries a
// version this package does not speak. Check with errors.Is.
var ErrTraceVersion = errors.New("obs: unsupported binary trace version")

// ErrNotBinaryTrace is returned (wrapped) when the input does not
// start with the binary trace magic, such as an old NDJSON trace.
var ErrNotBinaryTrace = errors.New("obs: not a binary trace (missing PWFT magic)")

// Compression selects the per-frame compression of a binary trace.
// The value is the header's compression byte.
type Compression byte

const (
	// CompressNone stores frame payloads raw.
	CompressNone Compression = 0
	// CompressGzip stores each frame payload as one gzip member
	// (BestSpeed), so frames stay independently decodable.
	CompressGzip Compression = 1
)

// String returns the flag spelling ("none", "gzip").
func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "none"
	case CompressGzip:
		return "gzip"
	}
	return fmt.Sprintf("Compression(%d)", byte(c))
}

// ParseCompression parses a -trace-compress flag value.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "none":
		return CompressNone, nil
	case "gzip":
		return CompressGzip, nil
	}
	return 0, fmt.Errorf("obs: unknown trace compression %q (want none or gzip)", s)
}

// Binary trace size bounds. The writer flushes frames at
// frameBytes of raw payload; the reader rejects frames
// claiming more than maxFrameBytes (encoded or decoded) so corrupt or
// adversarial length prefixes cannot force huge allocations, and
// labels longer than maxLabelBytes for the same reason.
const (
	frameBytes    = 32 << 10
	maxFrameBytes = 1 << 26
	maxLabelBytes = 1 << 20
)

// appendEvent packs e onto buf using prevStep as the step-delta base
// and returns the extended buffer and the new base.
func appendEvent(buf []byte, e Event, prevStep uint64) ([]byte, uint64, error) {
	buf = append(buf, byte(e.Kind))
	step := func() {
		// Unsigned subtraction wraps; the int64 cast recovers the
		// signed delta, and zigzag keeps backward jumps (interleaved
		// sweep jobs) short.
		buf = binary.AppendVarint(buf, int64(e.Step-prevStep))
		buf = binary.AppendVarint(buf, int64(e.PID))
		prevStep = e.Step
	}
	label := func() {
		buf = binary.AppendUvarint(buf, uint64(len(e.Label)))
		buf = append(buf, e.Label...)
	}
	switch e.Kind {
	case KindSched, KindBegin, KindCrash:
		step()
	case KindCAS:
		step()
		ok := byte(0)
		if e.OK {
			ok = 1
		}
		buf = append(buf, ok)
	case KindRetry, KindComplete:
		step()
		buf = binary.AppendUvarint(buf, e.Attempts)
	case KindJobStart:
		buf = binary.AppendVarint(buf, int64(e.Job))
		label()
	case KindJobEnd:
		buf = binary.AppendVarint(buf, int64(e.Job))
		label()
		buf = binary.AppendVarint(buf, e.ElapsedNS)
	default:
		return nil, prevStep, fmt.Errorf("obs: encode unknown event kind %d", e.Kind)
	}
	return buf, prevStep, nil
}

// decodeEvent unpacks one event from frame[off:], returning the event,
// the next offset, and the new step-delta base.
func decodeEvent(frame []byte, off int, prevStep uint64) (Event, int, uint64, error) {
	var e Event
	if off >= len(frame) {
		return e, off, prevStep, errors.New("obs: truncated event")
	}
	e.Kind = Kind(frame[off])
	off++
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(frame[off:])
		if n <= 0 {
			return 0, errors.New("obs: truncated event")
		}
		off += n
		return v, nil
	}
	varint := func() (int64, error) {
		v, n := binary.Varint(frame[off:])
		if n <= 0 {
			return 0, errors.New("obs: truncated event")
		}
		off += n
		return v, nil
	}
	step := func() error {
		d, err := varint()
		if err != nil {
			return err
		}
		e.Step = prevStep + uint64(d)
		prevStep = e.Step
		pid, err := varint()
		if err != nil {
			return err
		}
		e.PID = int(pid)
		return nil
	}
	label := func() error {
		n, err := uvarint()
		if err != nil {
			return err
		}
		if n > maxLabelBytes {
			return fmt.Errorf("obs: label length %d exceeds %d-byte limit", n, maxLabelBytes)
		}
		if uint64(len(frame)-off) < n {
			return errors.New("obs: truncated event")
		}
		e.Label = string(frame[off : off+int(n)])
		off += int(n)
		return nil
	}
	var err error
	switch e.Kind {
	case KindSched, KindBegin, KindCrash:
		err = step()
	case KindCAS:
		if err = step(); err == nil {
			if off >= len(frame) {
				err = errors.New("obs: truncated event")
			} else {
				switch frame[off] {
				case 0:
				case 1:
					e.OK = true
				default:
					err = fmt.Errorf("obs: invalid cas ok byte %d", frame[off])
				}
				off++
			}
		}
	case KindRetry, KindComplete:
		if err = step(); err == nil {
			e.Attempts, err = uvarint()
		}
	case KindJobStart:
		var job int64
		if job, err = varint(); err == nil {
			e.Job = int(job)
			err = label()
		}
	case KindJobEnd:
		var job int64
		if job, err = varint(); err == nil {
			e.Job = int(job)
			if err = label(); err == nil {
				e.ElapsedNS, err = varint()
			}
		}
	default:
		err = fmt.Errorf("obs: decode unknown event kind %d", e.Kind)
	}
	if err != nil {
		return Event{}, off, prevStep, err
	}
	return e, off, prevStep, nil
}

// BinaryTraceOptions parameterizes NewBinaryTraceWriter. The zero
// value selects an uncompressed trace metered on the Default
// registry.
type BinaryTraceOptions struct {
	// Compression selects the per-frame compression (default none).
	Compression Compression
	// Registry receives the writer metrics (trace_frames_written,
	// trace_events_written, trace_raw_bytes, trace_bytes_written,
	// trace_events_dropped, and the trace_compression_ratio_x100
	// gauge); nil selects Default.
	Registry *Registry
}

// BinaryTraceWriter is a Recorder writing events in trace format v2.
// It buffers internally and serializes Record with a mutex, so one
// writer may receive events from every worker of a sweep — within a
// job events appear in simulation order, while events of concurrently
// executing jobs interleave. Call Flush (or re-Flush) when the run is
// over; the file is valid after any Flush, because frames are
// self-contained.
type BinaryTraceWriter struct {
	mu       sync.Mutex
	bw       *bufio.Writer
	comp     Compression
	frame    []byte
	prevStep uint64
	flushAt  int // frameBytes; in-package tests lower it to force many frames
	gz       *gzip.Writer
	gzBuf    bytes.Buffer
	err      error

	mFrames  *Counter
	mEvents  *Counter
	mRaw     *Counter
	mWritten *Counter
	mDropped *Counter
}

// registerTraceMetrics wires the shared trace-writer metrics on reg
// and returns them. Counters are registry-owned (get-or-create by
// name), so every writer on one registry shares the same totals and
// the ratio gauge stays consistent.
func registerTraceMetrics(reg *Registry) (frames, events, raw, written, dropped *Counter) {
	if reg == nil {
		reg = Default
	}
	frames = reg.Counter("trace_frames_written")
	events = reg.Counter("trace_events_written")
	raw = reg.Counter("trace_raw_bytes")
	written = reg.Counter("trace_bytes_written")
	dropped = reg.Counter("trace_events_dropped")
	r, w := raw, written
	reg.Gauge("trace_compression_ratio_x100", func() uint64 {
		wr := w.Load()
		if wr == 0 {
			return 0
		}
		return r.Load() * 100 / wr
	})
	return frames, events, raw, written, dropped
}

// NewBinaryTraceWriter returns a Recorder writing a v2 binary trace
// to w. The header is written immediately; any write error is sticky
// and reported by Flush. An unknown Compression is a sticky error set
// before anything is written, so no reader ever sees its header.
func NewBinaryTraceWriter(w io.Writer, opts BinaryTraceOptions) *BinaryTraceWriter {
	t := &BinaryTraceWriter{
		bw:      bufio.NewWriterSize(w, 1<<16),
		comp:    opts.Compression,
		frame:   make([]byte, 0, frameBytes+256),
		flushAt: frameBytes,
	}
	t.mFrames, t.mEvents, t.mRaw, t.mWritten, t.mDropped = registerTraceMetrics(opts.Registry)
	switch opts.Compression {
	case CompressNone:
	case CompressGzip:
		t.gz, _ = gzip.NewWriterLevel(&t.gzBuf, gzip.BestSpeed)
	default:
		t.err = fmt.Errorf("obs: unknown trace compression %d", byte(opts.Compression))
		return t
	}
	hdr := [traceHeaderLen]byte{traceMagic[0], traceMagic[1], traceMagic[2], traceMagic[3],
		traceVersion, byte(opts.Compression)}
	if _, err := t.bw.Write(hdr[:]); err != nil {
		t.err = err
	}
	t.mWritten.Add(traceHeaderLen)
	return t
}

// Record implements Recorder. The first encode or write error is
// sticky: subsequent events are dropped (counted by
// trace_events_dropped) and the error is reported by Flush.
func (t *BinaryTraceWriter) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		t.mDropped.Inc()
		return
	}
	frame, prev, err := appendEvent(t.frame, e, t.prevStep)
	if err != nil {
		t.err = err
		t.mDropped.Inc()
		return
	}
	t.frame, t.prevStep = frame, prev
	t.mEvents.Inc()
	if len(t.frame) >= t.flushAt {
		t.err = t.flushFrameLocked()
	}
}

// flushFrameLocked emits the buffered frame: compress if configured,
// length-prefix, write. The step-delta base resets so the next frame
// is independently decodable.
func (t *BinaryTraceWriter) flushFrameLocked() error {
	if len(t.frame) == 0 {
		return nil
	}
	payload := t.frame
	if t.comp == CompressGzip {
		t.gzBuf.Reset()
		t.gz.Reset(&t.gzBuf)
		if _, err := t.gz.Write(t.frame); err != nil {
			return err
		}
		if err := t.gz.Close(); err != nil {
			return err
		}
		payload = t.gzBuf.Bytes()
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := t.bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := t.bw.Write(payload); err != nil {
		return err
	}
	t.mFrames.Inc()
	t.mRaw.Add(uint64(len(t.frame)))
	t.mWritten.Add(uint64(n + len(payload)))
	t.frame = t.frame[:0]
	t.prevStep = 0
	return nil
}

// Flush emits the partial frame, drains the buffer, and returns the
// first error encountered so far. The stream stays appendable: more
// Records after a Flush simply start a new frame.
func (t *BinaryTraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.flushFrameLocked(); err != nil {
		t.err = err
		return t.err
	}
	if err := t.bw.Flush(); err != nil {
		t.err = err
	}
	return t.err
}

// BinaryTraceReader decodes a v2 binary trace frame at a time: at
// most one frame (32 KiB raw as written) is resident regardless of
// file size, which is what lets paper-scale traces replay without
// paper-scale memory.
type BinaryTraceReader struct {
	br       *bufio.Reader
	comp     Compression
	frame    []byte
	off      int
	prevStep uint64
	compBuf  []byte
	gz       *gzip.Reader
	line     int // frame index, for errors
}

// NewBinaryTraceReader validates the header and returns a reader
// positioned at the first frame. A wrong version is ErrTraceVersion;
// missing magic is ErrNotBinaryTrace (both wrapped).
func NewBinaryTraceReader(r io.Reader) (*BinaryTraceReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [traceHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotBinaryTrace, err)
	}
	if !bytes.Equal(hdr[:4], traceMagic[:]) {
		return nil, fmt.Errorf("%w: got % x", ErrNotBinaryTrace, hdr[:4])
	}
	if hdr[4] != traceVersion {
		return nil, fmt.Errorf("%w: got version %d, this reader speaks %d",
			ErrTraceVersion, hdr[4], traceVersion)
	}
	comp := Compression(hdr[5])
	if comp != CompressNone && comp != CompressGzip {
		return nil, fmt.Errorf("obs: unknown trace compression byte %d", hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("obs: nonzero reserved header bytes % x", hdr[6:8])
	}
	return &BinaryTraceReader{br: br, comp: comp}, nil
}

// Next returns the next event, or io.EOF cleanly at the end of the
// trace. A frame or event cut short mid-way is an error naming the
// frame, never a silent success.
func (r *BinaryTraceReader) Next() (Event, error) {
	for r.off >= len(r.frame) {
		if err := r.readFrame(); err != nil {
			return Event{}, err
		}
	}
	e, off, prev, err := decodeEvent(r.frame, r.off, r.prevStep)
	if err != nil {
		return Event{}, fmt.Errorf("obs: trace frame %d: %w", r.line, err)
	}
	r.off, r.prevStep = off, prev
	return e, nil
}

// readFrame loads and decompresses the next frame. io.EOF exactly at
// a frame boundary is the clean end of the trace.
func (r *BinaryTraceReader) readFrame() error {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("obs: trace frame %d: truncated length prefix: %w", r.line+1, err)
	}
	r.line++
	if n > maxFrameBytes {
		return fmt.Errorf("obs: trace frame %d claims %d bytes, limit %d", r.line, n, maxFrameBytes)
	}
	if cap(r.compBuf) < int(n) {
		r.compBuf = make([]byte, n)
	}
	r.compBuf = r.compBuf[:n]
	if _, err := io.ReadFull(r.br, r.compBuf); err != nil {
		return fmt.Errorf("obs: trace frame %d: truncated frame: %w", r.line, err)
	}
	r.off, r.prevStep = 0, 0
	if r.comp == CompressNone {
		r.frame = r.compBuf
		return nil
	}
	if r.gz == nil {
		gz, err := gzip.NewReader(bytes.NewReader(r.compBuf))
		if err != nil {
			return fmt.Errorf("obs: trace frame %d: %w", r.line, err)
		}
		r.gz = gz
	} else if err := r.gz.Reset(bytes.NewReader(r.compBuf)); err != nil {
		return fmt.Errorf("obs: trace frame %d: %w", r.line, err)
	}
	r.frame = r.frame[:0]
	lim := io.LimitReader(r.gz, maxFrameBytes+1)
	buf := make([]byte, 16<<10)
	for {
		m, err := lim.Read(buf)
		r.frame = append(r.frame, buf[:m]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("obs: trace frame %d: %w", r.line, err)
		}
	}
	if len(r.frame) > maxFrameBytes {
		return fmt.Errorf("obs: trace frame %d decompresses past the %d-byte limit", r.line, maxFrameBytes)
	}
	return nil
}

// ReadBinaryEvents decodes a whole v2 binary trace, preserving order.
// This is what pwf.ReadTraceEvents calls.
func ReadBinaryEvents(r io.Reader) ([]Event, error) {
	br, err := NewBinaryTraceReader(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	for {
		e, err := br.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
