package api

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"pwf/internal/sweep"
)

// The grid decoder (see DecodeGrid) reads the fixed schema Grid → Job
// → Workload, SchedulerSpec → PhaseSpec in one recursive-descent pass,
// with one field table per object type below. It checks the JSON
// syntax itself, as encoding/json does, and accepts a subset of what
// encoding/json accepts: keys must match exactly and occur at most
// once, and nothing but whitespace may follow the grid. A null value
// leaves the field's zero value, and [] gives an empty, non-nil slice,
// both as encoding/json leaves them.

// field is one key of an object type T and the function reading its
// value into a T.
type field[T any] struct {
	name string
	read func(d *decoder, v *T)
}

var gridFields = []field[Grid]{
	{"v", func(d *decoder, g *Grid) { integer(d, &g.V) }},
	{"seed", func(d *decoder, g *Grid) { d.uint64(&g.Seed) }},
	{"jobs", func(d *decoder, g *Grid) {
		list(d, &g.Jobs, func(d *decoder, j *Job) { object(d, j, jobFields) })
	}},
}

var jobFields = []field[Job]{
	{"workload", func(d *decoder, j *Job) { object(d, &j.Workload, workloadFields) }},
	{"n", func(d *decoder, j *Job) { integer(d, &j.N) }},
	{"sched", func(d *decoder, j *Job) { d.sched(&j.Sched) }},
	{"steps", func(d *decoder, j *Job) { d.uint64(&j.Steps) }},
	{"warmup_fraction", func(d *decoder, j *Job) { d.float(&j.WarmupFraction) }},
	{"crash", func(d *decoder, j *Job) { integer(d, &j.Crash) }},
	{"exact", func(d *decoder, j *Job) { d.bool(&j.Exact) }},
	{"label", func(d *decoder, j *Job) { d.string(&j.Label) }},
}

var workloadFields = []field[Workload]{
	{"kind", func(d *decoder, w *Workload) { name(d, &w.Kind, &d.workloadKind) }},
	{"q", func(d *decoder, w *Workload) { integer(d, &w.Q) }},
	{"s", func(d *decoder, w *Workload) { integer(d, &w.S) }},
	{"wait_factor", func(d *decoder, w *Workload) { integer(d, &w.WaitFactor) }},
	{"pool_size", func(d *decoder, w *Workload) { integer(d, &w.PoolSize) }},
}

var schedFields = []field[SchedulerSpec]{
	{"kind", func(d *decoder, s *SchedulerSpec) { name(d, &s.Kind, &d.schedKind) }},
	{"rho", func(d *decoder, s *SchedulerSpec) { d.float(&s.Rho) }},
	{"tickets", func(d *decoder, s *SchedulerSpec) { list(d, &s.Tickets, integer[int]) }},
	{"weights", func(d *decoder, s *SchedulerSpec) { list(d, &s.Weights, (*decoder).float) }},
	{"phases", func(d *decoder, s *SchedulerSpec) {
		list(d, &s.Phases, func(d *decoder, p *sweep.PhaseSpec) { object(d, p, phaseFields) })
	}},
	{"victim", func(d *decoder, s *SchedulerSpec) { integer(d, &s.Victim) }},
}

var phaseFields = []field[sweep.PhaseSpec]{
	{"weights", func(d *decoder, p *sweep.PhaseSpec) { list(d, &p.Weights, (*decoder).float) }},
	{"steps", func(d *decoder, p *sweep.PhaseSpec) { d.uint64(&p.Steps) }},
}

// decoder is the cursor of one grid decode.
type decoder struct {
	data []byte
	off  int
	// key is the offset of the key whose value is being read, or -1,
	// for errors.
	key int
	// workloadKind and schedKind are the kinds the last job named.
	workloadKind, schedKind string
	// scratch holds the decoded form of a string that has escapes or
	// invalid UTF-8; str returns it until its next call.
	scratch []byte
}

// failure carries a decode error from where it is found up to
// decodeGrid, which recovers it.
type failure struct{ err error }

// decodeGrid parses data as one grid and nothing else but whitespace,
// without validating it.
func decodeGrid(data []byte) (g Grid, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			g, err = Grid{}, f.err
		}
	}()
	d := decoder{data: data, key: -1}
	object(&d, &g, gridFields)
	if d.next(); d.off < len(d.data) {
		d.fail("trailing data after grid")
	}
	return g, nil
}

func (d *decoder) fail(format string, args ...any) {
	where := "offset " + strconv.Itoa(d.off)
	if d.key >= 0 {
		k := decoder{data: d.data, off: d.key}
		where += " (field " + strconv.Quote(string(k.str())) + ")"
	}
	panic(failure{fmt.Errorf("%s: %w", where, fmt.Errorf(format, args...))})
}

// unexpected fails on the byte at the cursor, which is not the start
// of what the schema wants here.
func (d *decoder) unexpected(want string) {
	if d.off >= len(d.data) {
		d.fail("unexpected end of input, want %s", want)
	}
	d.fail("invalid character %q, want %s", d.data[d.off], want)
}

// next skips whitespace and returns the byte at the cursor, or 0 at
// the end of the input (a 0 byte is never valid there either).
func (d *decoder) next() byte {
	if c := d.at(d.off); c > ' ' {
		return c
	}
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the keyword word at the cursor.
func (d *decoder) literal(word string) {
	if !bytes.HasPrefix(d.data[d.off:], []byte(word)) {
		d.unexpected(strconv.Quote(word))
	}
	d.off += len(word)
}

// null consumes a null value if one is next.
func (d *decoder) null() bool {
	if d.next() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// object reads one object of type T into v, each key one of fields
// and at most once, or null.
func object[T any](d *decoder, v *T, fields []field[T]) {
	if d.null() {
		return
	}
	if d.next() != '{' {
		d.unexpected("an object")
	}
	d.off++
	if d.next() == '}' {
		d.off++
		return
	}
	outer := d.key
	var seen uint64
	for i := 0; ; i++ {
		if d.next() != '"' {
			d.unexpected("a key")
		}
		at := d.off
		i = member(d, fields, i)
		if seen&(1<<i) != 0 {
			d.fail("duplicate field %q", fields[i].name)
		}
		seen |= 1 << i
		if d.next() != ':' {
			d.unexpected("':'")
		}
		d.off++
		d.key = at
		fields[i].read(d, v)
		d.key = outer
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.off++
			return
		default:
			d.unexpected("',' or '}'")
		}
	}
}

// member consumes an object key and returns its index in fields. A
// key without escapes is its own bytes, so it first looks for those,
// from the expected index i on: the canonical encoding writes keys in
// field order.
func member[T any](d *decoder, fields []field[T], i int) int {
	for range fields {
		if i == len(fields) {
			i = 0
		}
		name, end := fields[i].name, d.off+1+len(fields[i].name)
		if d.at(end) == '"' && string(d.data[d.off+1:end]) == name {
			d.off = end + 1
			return i
		}
		i++
	}
	key := d.str()
	for i, f := range fields {
		if string(key) == f.name {
			return i
		}
	}
	d.fail("unknown field %q", key)
	return 0
}

// list reads an array into s, each element with read, or null. An
// empty array gives an empty, non-nil slice.
func list[T any](d *decoder, s *[]T, read func(*decoder, *T)) {
	if d.null() {
		return
	}
	if d.next() != '[' {
		d.unexpected("an array")
	}
	d.off++
	out := make([]T, 0)
	if d.next() == ']' {
		d.off++
		*s = out
		return
	}
	for {
		var zero T
		out = append(out, zero)
		read(d, &out[len(out)-1])
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.off++
			*s = out
			return
		default:
			d.unexpected("',' or ']'")
		}
	}
}

// number consumes a number literal, checked against RFC 8259's
// grammar, and returns it.
func (d *decoder) number() []byte {
	d.next()
	start, i := d.off, d.off
	if d.at(i) == '-' {
		i++
	}
	switch c := d.at(i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = d.digits(i + 1)
	default:
		d.off = i
		d.unexpected("a number")
	}
	if d.at(i) == '.' {
		i = d.someDigits(i + 1)
	}
	if d.at(i)|0x20 == 'e' {
		if i++; d.at(i) == '+' || d.at(i) == '-' {
			i++
		}
		i = d.someDigits(i)
	}
	d.off = i
	return d.data[start:i]
}

// at returns the byte at i, or 0 past the end of the input.
func (d *decoder) at(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

// digits returns the end of the run of decimal digits from i.
func (d *decoder) digits(i int) int {
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	return i
}

// someDigits is digits for a run that must not be empty.
func (d *decoder) someDigits(i int) int {
	end := d.digits(i)
	if end == i {
		d.off = i
		d.unexpected("a digit")
	}
	return end
}

// The scalar readers leave v alone on null and parse a number with the
// strconv call encoding/json makes for v's type.

func integer[T int | int64](d *decoder, v *T) {
	if d.null() {
		return
	}
	n, err := strconv.ParseInt(string(d.number()), 10, 64)
	if err != nil {
		d.fail("%w", err)
	}
	if int64(T(n)) != n {
		d.fail("%d overflows %T", n, *v)
	}
	*v = T(n)
}

func (d *decoder) uint64(v *uint64) {
	if d.null() {
		return
	}
	n, err := strconv.ParseUint(string(d.number()), 10, 64)
	if err != nil {
		d.fail("%w", err)
	}
	*v = n
}

func (d *decoder) float(v *float64) {
	if d.null() {
		return
	}
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail("%w", err)
	}
	*v = f
}

func (d *decoder) bool(v *bool) {
	switch d.next() {
	case 'n':
		d.literal("null")
	case 't':
		d.literal("true")
		*v = true
	case 'f':
		d.literal("false")
		*v = false
	default:
		d.unexpected("true or false")
	}
}

func (d *decoder) string(v *string) {
	if d.null() {
		return
	}
	if d.next() != '"' {
		d.unexpected("a string")
	}
	*v = string(d.str())
}

// name reads a workload or scheduler kind. Jobs tend to repeat the
// kinds of the job before them, so it keeps the last kind read in the
// same place in *last and allocates only a different one.
func name[K ~string](d *decoder, v *K, last *string) {
	if d.null() {
		return
	}
	if d.next() != '"' {
		d.unexpected("a string")
	}
	if s := d.str(); string(s) != *last {
		*last = string(s)
	}
	*v = K(*last)
}

// sched reads a scheduler in its object form, or in its string form
// through sweep.ParseScheduler, the one scheduler grammar.
func (d *decoder) sched(s *SchedulerSpec) {
	if d.next() != '"' {
		object(d, s, schedFields)
		return
	}
	spec, err := sweep.ParseScheduler(string(d.str()))
	if err != nil {
		d.fail("%w", err)
	}
	*s = spec
}

// str consumes the string literal at the cursor (its opening quote)
// and returns its decoded bytes, as encoding/json decodes them: the
// escapes of RFC 8259, a surrogate pair as one rune, and a lone
// surrogate or each byte of invalid UTF-8 as U+FFFD. The result is a
// slice of the input when nothing needed rewriting, else of scratch.
func (d *decoder) str() []byte {
	data, i := d.data, d.off+1
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			s := data[d.off+1 : i]
			d.off = i + 1
			return s
		case c == '\\' || c < ' ':
			return d.rewrite(i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.rewrite(i)
			}
			i += size
		}
	}
	return d.rewrite(i)
}

// rewrite decodes the string literal at the cursor into scratch from
// i on, after copying the bytes before i, which need no rewriting.
func (d *decoder) rewrite(i int) []byte {
	b := append(d.scratch[:0], d.data[d.off+1:i]...)
	d.off = i
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			d.scratch = b
			return b
		case c < ' ':
			d.fail("invalid character %q in string literal", c)
		case c == '\\' && d.off+1 < len(d.data) && d.data[d.off+1] != 'u':
			i := bytes.IndexByte([]byte(`"\/bfnrt`), d.data[d.off+1])
			if i < 0 {
				d.fail("invalid escape %q in string literal", d.data[d.off+1])
			}
			b = append(b, "\"\\/\b\f\n\r\t"[i])
			d.off += 2
		case c == '\\':
			r := d.u4()
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, d.peekU4()); pair != utf8.RuneError {
					d.off += 6
					r = pair
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += size
		}
	}
	d.unexpected("the end of the string")
	return nil
}

// u4 consumes a \uXXXX escape at the cursor and returns its code unit.
func (d *decoder) u4() rune {
	r := d.peekU4()
	if r < 0 {
		d.fail("invalid \\u escape in string literal")
	}
	d.off += 6
	return r
}

// peekU4 returns the code unit of a \uXXXX escape at the cursor, or -1
// when there is none.
func (d *decoder) peekU4() rune {
	if len(d.data)-d.off < 6 || d.data[d.off] != '\\' || d.data[d.off+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[d.off+2 : d.off+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			c = c | 0x20 - 'a' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
