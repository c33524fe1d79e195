package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pwf/internal/sweep"
)

// wireEncoders maps every wire struct to its canonical encoder.
var wireEncoders = map[reflect.Type]func(v any) ([]byte, error){
	reflect.TypeOf(Grid{}):            func(v any) ([]byte, error) { return MarshalGrid(v.(Grid)) },
	reflect.TypeOf(Job{}):             func(v any) ([]byte, error) { j := v.(Job); return appendWith(appendJob, &j) },
	reflect.TypeOf(Workload{}):        func(v any) ([]byte, error) { w := v.(Workload); return appendWith(appendWorkload, &w) },
	reflect.TypeOf(SchedulerSpec{}):   func(v any) ([]byte, error) { s := v.(SchedulerSpec); return appendWith(appendSched, &s) },
	reflect.TypeOf(sweep.PhaseSpec{}): func(v any) ([]byte, error) { p := v.(sweep.PhaseSpec); return appendWith(appendPhase, &p) },
	reflect.TypeOf(Result{}):          func(v any) ([]byte, error) { return MarshalResult(v.(Result)) },
	reflect.TypeOf(Latencies{}):       func(v any) ([]byte, error) { l := v.(Latencies); return appendWith(appendLatencies, &l) },
	reflect.TypeOf(Error{}):           func(v any) ([]byte, error) { return MarshalError(v.(Error)) },
}

// appendWith runs one of the encoder's per-type append functions on an
// empty buffer, turning its unsupported-value panic into the error
// marshal would return.
func appendWith[T any](app func([]byte, *T) []byte, v *T) (b []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, r.(unsupported).err
		}
	}()
	return app(nil, v), nil
}

// nonZero returns a non-zero value of type t: every field of a struct
// set, a slice of one element. It fails the test on a kind it does not
// know, so a wire field of a new kind cannot slip past the coverage
// test unencoded.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(-3)
	case reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Float64:
		v.SetFloat(2.5e-7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("a<b>&\"c\"\u2028\xff")
	case reflect.Slice:
		v.Set(reflect.Append(reflect.MakeSlice(typ, 0, 1), nonZero(t, typ.Elem())))
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			v.Field(i).Set(nonZero(t, typ.Field(i).Type))
		}
	default:
		t.Fatalf("no non-zero value for a wire field of type %s", typ)
	}
	return v
}

// checkSame requires the canonical encoder and encoding/json to agree
// on v: equal bytes, or an error from both.
func checkSame(t *testing.T, what string, v any) {
	t.Helper()
	enc, ok := wireEncoders[reflect.TypeOf(v)]
	if !ok {
		t.Fatalf("no canonical encoder for %T", v)
	}
	got, gotErr := enc(v)
	want, wantErr := json.Marshal(v)
	if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Errorf("%s %T:\n got %s (err %v)\nwant %s (err %v)", what, v, got, gotErr, want, wantErr)
	}
}

// TestEncoderCoversEveryField sets each exported field of each wire
// struct alone, and all of them together, and holds the encoder to
// encoding/json's bytes. A field added to a wire type without encoder
// support fails here. Empty non-nil slices, which omitempty drops but
// a plain field writes as [], are checked field by field too.
func TestEncoderCoversEveryField(t *testing.T) {
	for typ := range wireEncoders {
		checkSame(t, "zero", reflect.New(typ).Elem().Interface())
		checkSame(t, "all fields set", nonZero(t, typ).Interface())
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			v := reflect.New(typ).Elem()
			v.Field(i).Set(nonZero(t, f.Type))
			checkSame(t, "only "+f.Name, v.Interface())
			if f.Type.Kind() == reflect.Slice {
				v.Field(i).Set(reflect.MakeSlice(f.Type, 0, 0))
				checkSame(t, "empty "+f.Name, v.Interface())
			}
		}
	}
}

// The number and string forms the encoder must reproduce exactly.
func TestEncoderScalarForms(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-300,
		5e-324, 1e20, 1e21, 123456789e13, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.0 / 3} {
		checkSame(t, "float", Latencies{System: f, Fairness: -f})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkSame(t, "unsupported float", Latencies{Individual: f})
		checkSame(t, "unsupported omitempty float", SchedulerSpec{Rho: f})
	}
	for _, s := range []string{"", "plain", "\x00\x01\b\f\n\r\t\x1f\x7f", `"\`, "<script>&amp;</script>",
		"\u2028\u2029", "héllo, 世界 😀", "\xff\xfe", "\xe2\x80", "a\xc0\x80b", "\ufffd"} {
		checkSame(t, "string", Error{Code: s, Message: s + s})
	}
	for _, v := range []int{math.MinInt64, -1, math.MaxInt64} {
		checkSame(t, "int", Workload{Q: v, WaitFactor: int64(v)})
	}
}

// The line form is the encoding plus one newline, and both come in
// slices no larger than a fresh copy of their bytes.
func TestMarshalResultLine(t *testing.T) {
	r := nonZero(t, reflect.TypeOf(Result{})).Interface().(Result)
	r.Latencies.System = 1.5
	b, err := MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	line, err := MarshalResultLine(r)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh copy of the bytes has the capacity json.Marshal's result
	// has: the length rounded up to the allocator's size class.
	if string(line) != string(b)+"\n" || cap(line) != cap(bytes.Clone(line)) || cap(b) != cap(bytes.Clone(b)) {
		t.Errorf("line %q (cap %d) is not %q (cap %d) plus a newline, each in a fresh copy's capacity",
			line, cap(line), b, cap(b))
	}
	r.Theta = math.NaN()
	if line, err := MarshalResultLine(r); err == nil || line != nil {
		t.Errorf("NaN theta encoded as %q, err %v", line, err)
	}
}

// wireWalk visits v's leaves in field order: each number, bool and
// string, and each slice before its elements.
func wireWalk(v reflect.Value, leaf func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			wireWalk(v.Field(i), leaf)
		}
	case reflect.Slice:
		leaf(v)
		for i := 0; i < v.Len(); i++ {
			wireWalk(v.Index(i), leaf)
		}
	default:
		leaf(v)
	}
}

// fuzzWire fills a Result, a Grid and an Error, in that order, from
// fuzz input: each leaf takes the next 8 bytes of words as one word (0
// past the end). Floats take the word's raw bits, so NaN and ±Inf
// occur; a slice is nil for word%17 == 0 and has word%17 - 1 elements
// otherwise; a string takes the next word's worth of bytes of text.
func fuzzWire(words []byte, text string) (Result, Grid, Error) {
	next := func() uint64 {
		var w [8]byte
		words = words[copy(w[:], words):]
		return binary.LittleEndian.Uint64(w[:])
	}
	fill := func(v reflect.Value) {
		switch w := next(); v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(w))
		case reflect.Uint64:
			v.SetUint(w)
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(w))
		case reflect.Bool:
			v.SetBool(w&1 == 1)
		case reflect.String:
			n := int(min(w, uint64(len(text))))
			v.SetString(text[:n])
			text = text[n:]
		case reflect.Slice:
			if n := int(w % 17); n != 0 {
				v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			}
		}
	}
	var r Result
	var g Grid
	var e Error
	for _, p := range []any{&r, &g, &e} {
		wireWalk(reflect.ValueOf(p).Elem(), fill)
	}
	return r, g, e
}

// fuzzSeed is fuzzWire's inverse: the words and text that fill r, g
// and e.
func fuzzSeed(r Result, g Grid, e Error) ([]byte, string) {
	var words []byte
	var text string
	dump := func(v reflect.Value) {
		var w uint64
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			w = uint64(v.Int())
		case reflect.Uint64:
			w = v.Uint()
		case reflect.Float64:
			w = math.Float64bits(v.Float())
		case reflect.Bool:
			if v.Bool() {
				w = 1
			}
		case reflect.String:
			w = uint64(v.Len())
			text += v.String()
		case reflect.Slice:
			if !v.IsNil() {
				w = uint64(v.Len()) + 1
			}
		}
		words = binary.LittleEndian.AppendUint64(words, w)
	}
	for _, p := range []any{&r, &g, &e} {
		wireWalk(reflect.ValueOf(p).Elem(), dump)
	}
	return words, text
}

// FuzzMarshalMatchesEncodingJSON holds the canonical encoder to
// encoding/json on wire values built from fuzz input: arbitrary label
// bytes and floats from raw bits. Both must give equal bytes, or both
// an error. The corpus seeds are the golden result lines.
func FuzzMarshalMatchesEncodingJSON(f *testing.F) {
	golden, err := os.Open(filepath.Join("testdata", "results_v1.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	defer golden.Close()
	sc := bufio.NewScanner(golden)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			f.Fatal(err)
		}
		g := Grid{V: Version, Seed: r.Seed, Jobs: []Job{r.Job}}
		words, text := fuzzSeed(r, g, Error{V: Version, Code: CodeInternal, Message: fmt.Sprintf("point %d", r.Index)})
		f.Add(words, text)
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, words []byte, text string) {
		r, g, e := fuzzWire(words, text)
		checkSame(t, "fuzzed", r)
		checkSame(t, "fuzzed", g)
		checkSame(t, "fuzzed", e)
	})
}

// TestFuzzSeedRoundTrip checks the corpus encoding: the seed built
// from a value fills an equal value back.
func TestFuzzSeedRoundTrip(t *testing.T) {
	r := nonZero(t, reflect.TypeOf(Result{})).Interface().(Result)
	g := nonZero(t, reflect.TypeOf(Grid{})).Interface().(Grid)
	g.Jobs = append(g.Jobs, Job{})
	e := nonZero(t, reflect.TypeOf(Error{})).Interface().(Error)
	r2, g2, e2 := fuzzWire(fuzzSeed(r, g, e))
	if !reflect.DeepEqual(r2, r) || !reflect.DeepEqual(g2, g) || !reflect.DeepEqual(e2, e) {
		t.Errorf("seed round trip:\n got %+v %+v %+v\nwant %+v %+v %+v", r2, g2, e2, r, g, e)
	}
}

// benchGrid is a serve-loop-shaped submission: 16 labelled jobs.
func benchGrid() Grid {
	g := Grid{V: Version, Seed: 0x9e3779b97f4a7c15}
	for _, w := range []Workload{{Kind: sweep.SCU, S: 1}, {Kind: sweep.FetchInc}, {Kind: sweep.Stack}, {Kind: sweep.Queue}} {
		for r := 0; r < 4; r++ {
			g.Jobs = append(g.Jobs, Job{Workload: w, N: 4, Steps: 2000, WarmupFraction: 0.1,
				Label: fmt.Sprintf("%s/r%d", w.Kind, r)})
		}
	}
	return g
}

// BenchmarkMarshal times the canonical encoder against encoding/json
// on a 16-job grid and on one golden result line.
func BenchmarkMarshal(b *testing.B) {
	results, err := os.ReadFile(filepath.Join("testdata", "results_v1.ndjson"))
	if err != nil {
		b.Fatal(err)
	}
	var r Result
	if err := json.Unmarshal(results[:bytes.IndexByte(results, '\n')], &r); err != nil {
		b.Fatal(err)
	}
	g := benchGrid()
	for _, bc := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"grid16/api", func() ([]byte, error) { return MarshalGrid(g) }},
		{"grid16/encoding_json", func() ([]byte, error) { return json.Marshal(g) }},
		{"result/api", func() ([]byte, error) { return MarshalResult(r) }},
		{"result/encoding_json", func() ([]byte, error) { return json.Marshal(r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
