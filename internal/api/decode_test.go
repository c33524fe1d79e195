package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pwf/internal/sweep"
)

// oracleDecodeGrid is the grid decoder this package had before its
// own: encoding/json with unknown fields disallowed and a check for
// trailing data. It does not validate, as decodeGrid does not.
func oracleDecodeGrid(data []byte) (Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, err
	}
	if dec.More() {
		return Grid{}, errors.New("trailing data after grid")
	}
	return g, nil
}

// oracleDecodeValid is oracleDecodeGrid plus Grid.Validate: the former
// DecodeGrid.
func oracleDecodeValid(data []byte) (Grid, error) {
	g, err := oracleDecodeGrid(data)
	if err != nil {
		return Grid{}, err
	}
	return g, g.Validate()
}

// canonical returns g with the empty, non-nil scheduler lists cleared:
// the canonical encoding omits them (omitempty), so a round trip
// through MarshalGrid gives nil there, and that is its one change.
func canonical(g Grid) Grid {
	g.Jobs = slices.Clone(g.Jobs)
	for i := range g.Jobs {
		s := &g.Jobs[i].Sched
		if len(s.Tickets) == 0 {
			s.Tickets = nil
		}
		if len(s.Weights) == 0 {
			s.Weights = nil
		}
		if len(s.Phases) == 0 {
			s.Phases = nil
		}
	}
	return g
}

// gridWith is a one-job grid whose job has the given members after
// its workload.
func gridWith(members string) string {
	return `{"v":1,"seed":7,"jobs":[{"workload":{"kind":"scu","s":1},` + members + `}]}`
}

// TestDecodeGridMatchesEncodingJSON holds decodeGrid to encoding/json
// on syntax and value edge cases: both accept to equal grids, or both
// refuse, except on the rows marked strict, which decodeGrid alone
// refuses.
func TestDecodeGridMatchesEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		in     string
		strict bool
	}{
		// Strings: escapes, surrogates, invalid UTF-8 as U+FFFD.
		{in: gridWith(`"n":2,"label":"a\"b\\c\/d\b\f\n\r\t"`)},
		{in: gridWith(`"n":2,"label":"\u00e9\u4E16\u0000\u003c"`)},
		{in: gridWith(`"n":2,"label":"\ud83d\ude00"`)},
		{in: gridWith(`"n":2,"label":"\ud83dx"`)},
		{in: gridWith(`"n":2,"label":"\ude00\ud83d"`)},
		{in: gridWith(`"n":2,"label":"\ud83d\u0041"`)},
		{in: gridWith(`"n":2,"label":"\ud83d\ud83d\ude00"`)},
		{in: gridWith(`"n":2,"label":"\ud83d\u12"`)},
		{in: gridWith("\"n\":2,\"label\":\"a\xffb\xe2\x80\xed\xa0\x80\xc0\x80\"")},
		{in: gridWith("\"n\":2,\"label\":\"\\\\\xff\\u00e9\xf0\x9f\x98\x80\"")},
		{in: gridWith("\"n\":2,\"label\":\"héllo, 世界 😀 \x7f\"")},
		{in: gridWith("\"n\":2,\"label\":\"a\x01b\"")},
		{in: gridWith(`"n":2,"label":"\x"`)},
		{in: gridWith(`"n":2,"label":"\u12G4"`)},
		{in: gridWith(`"n":2,"label":"\u12"}]}`)},
		{in: gridWith(`"n":2,"label":"abc`)},
		{in: gridWith(`"n":2,"label":4`)},
		{in: gridWith(`"\u006e":2,"la\u0062el":"x"`)},
		{in: `{"v":1,"seed":7,"jobs":[{"workload":{"kind":"a\\b"}},{"workload":{"kind":"a\b"}}]}`},
		// Numbers: RFC 8259's grammar, then each field's strconv call.
		{in: gridWith(`"n":1.0`)},
		{in: gridWith(`"n":1e2`)},
		{in: gridWith(`"n":-0`)},
		{in: gridWith(`"n":-9223372036854775808`)},
		{in: gridWith(`"n":9223372036854775808`)},
		{in: gridWith(`"n":"4"`)},
		{in: gridWith(`"n":2,"steps":-0`)},
		{in: gridWith(`"n":2,"steps":18446744073709551615`)},
		{in: gridWith(`"n":2,"steps":18446744073709551616`)},
		{in: gridWith(`"n":2,"warmup_fraction":1e400`)},
		{in: gridWith(`"n":2,"warmup_fraction":1e-400`)},
		{in: gridWith(`"n":2,"warmup_fraction":-0.0`)},
		{in: gridWith(`"n":2,"warmup_fraction":1E+2`)},
		{in: gridWith(`"n":2,"warmup_fraction":2.5e-7`)},
		{in: gridWith(`"n":2,"warmup_fraction":0.100000000000000000000000001`)},
		{in: gridWith(`"n":2,"warmup_fraction":01`)},
		{in: gridWith(`"n":2,"warmup_fraction":.5`)},
		{in: gridWith(`"n":2,"warmup_fraction":1.`)},
		{in: gridWith(`"n":2,"warmup_fraction":1e`)},
		{in: gridWith(`"n":2,"warmup_fraction":-`)},
		{in: gridWith(`"n":2,"warmup_fraction":+1`)},
		{in: gridWith(`"n":2,"warmup_fraction":NaN`)},
		// Literals and null.
		{in: gridWith(`"n":2,"exact":true`)},
		{in: gridWith(`"n":2,"exact":false`)},
		{in: gridWith(`"n":2,"exact":null`)},
		{in: gridWith(`"n":2,"exact":1`)},
		{in: gridWith(`"n":2,"exact":tru`)},
		{in: gridWith(`"n":2,"exact":nul`)},
		{in: gridWith(`"n":null,"label":null,"sched":null,"steps":null,"crash":null`)},
		{in: `{"v":1,"seed":null,"jobs":[null,{"workload":null}]}`},
		{in: `{"v":1,"seed":1,"jobs":null}`},
		{in: `{"v":1,"seed":1,"jobs":[]}`},
		{in: `{}`},
		{in: `null`},
		{in: ` null `},
		{in: `nullx`},
		{in: `[]`},
		{in: `""`},
		{in: ``},
		{in: ` `},
		{in: `{"v":1`},
		{in: `{"v":1,}`},
		{in: `{,}`},
		{in: `{"v":1,"seed":1,"jobs":[{},]}`},
		{in: `{"v" 1}`},
		// Whitespace: space, tab, newline and return only.
		{in: " \t\r\n{ \"v\" :\t1 ,\r\"jobs\"\n:[ { } ] }\n\t "},
		{in: "\f{}"},
		{in: "{}\f"},
		{in: "{}x"},
		{in: "{} {}"},
		// The scheduler: string form, object form, null.
		{in: gridWith(`"n":2,"sched":"sticky:0.5"`)},
		{in: gridWith(`"n":2,"sched":"st\u0069cky:0.5"`)},
		{in: gridWith(`"n":2,"sched":"lottery:1,2"`)},
		{in: gridWith(`"n":2,"sched":"phased:3,1@50/1,3@50"`)},
		{in: gridWith(`"n":2,"sched":"bogus"`)},
		{in: gridWith(`"n":2,"sched":"sticky:9"`)},
		{in: gridWith(`"n":2,"sched":5`)},
		{in: gridWith(`"n":2,"sched":[]`)},
		{in: gridWith(`"n":2,"sched":true`)},
		{in: gridWith(`"n":2,"sched":{}`)},
		{in: gridWith(`"n":2,"sched":{"kind":null,"rho":null,"tickets":null,"weights":null,"phases":null,"victim":null}`)},
		{in: gridWith(`"n":2,"sched":{"kind":"lottery","tickets":[]}`)},
		{in: gridWith(`"n":2,"sched":{"kind":"weighted","weights":[1,2.5]}`)},
		{in: gridWith(`"n":2,"sched":{"kind":"lottery","tickets":[1,2.5]}`)},
		{in: gridWith(`"n":2,"sched":{"kind":"phased","phases":[{"weights":[],"steps":1},{"weights":null,"steps":2},{}]}`)},
		{in: gridWith(`"n":2,"sched":{"kind":"adversary","victim":1}`)},
		// Refused here, accepted by encoding/json.
		{in: gridWith(`"n":2,"sched":{"kind":"sticky","rho":0.5,"rh0":0.9}`), strict: true},
		{in: gridWith(`"n":2,"sched":{"kind":"sticky","rho":0.5,"rho":0.9}`), strict: true},
		{in: gridWith(`"n":2,"sched":{"Kind":"sticky","rho":0.5}`), strict: true},
		{in: gridWith(`"n":2,"sched":{"kind":"phased","phases":[{"weights":[1],"steps":1,"bogus":1}]}`), strict: true},
		{in: gridWith(`"n":2,"n":3`), strict: true},
		{in: gridWith(`"N":4`), strict: true},
		{in: gridWith(`"n":2,"\u017fteps":100`), strict: true},
		{in: `{"v":1,"seed":7,"jobs":[{"workload":{"Kind":"scu"},"n":2}]}`, strict: true},
		{in: `{"v":1,"seed":7,"jobs":[{"workload":{"kind":"scu","s":1,"s":2},"n":2}]}`, strict: true},
		{in: `{"v":1,"seed":7,"jobs":[],"jobs":null}`, strict: true},
		{in: `{"v":1,"seed":1,"jobs":[]}]`, strict: true},
		{in: `{"v":1,"seed":1,"jobs":[]}}`, strict: true},
		{in: `{"v":1,"seed":1,"jobs":[]} ]`, strict: true},
	} {
		got, err := decodeGrid([]byte(tc.in))
		want, wantErr := oracleDecodeGrid([]byte(tc.in))
		switch {
		case tc.strict && (err == nil || wantErr != nil):
			t.Errorf("%q: got err %v, encoding/json err %v; want only this decoder to refuse", tc.in, err, wantErr)
		case tc.strict:
		case (err == nil) != (wantErr == nil):
			t.Errorf("%q: err %v, encoding/json err %v", tc.in, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%q:\n got %#v\nwant %#v", tc.in, got, want)
		}
	}
}

// TestDecoderCoversEveryField decodes the canonical encoding of a grid
// with every field of every wire struct set, as encoding/json decodes
// it: a field missing from the decoder's tables fails as unknown.
func TestDecoderCoversEveryField(t *testing.T) {
	g := nonZero(t, reflect.TypeOf(Grid{})).Interface().(Grid)
	b, err := MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeGrid(b)
	if err != nil {
		t.Fatalf("%s: %v", b, err)
	}
	want, err := oracleDecodeGrid(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %#v\nwant %#v", b, got, want)
	}
}

// observedShapeGrid has the shape of the benchmark's grid-observed
// input: 11 workload kinds × 3 schedulers × 3 process counts × 2
// replicas, plus 5 exact families × 3 process counts × 2 replicas
// (228 labelled jobs).
func observedShapeGrid() Grid {
	kinds := []Workload{{Kind: sweep.SCU, S: 1}, {Kind: sweep.FetchInc}, {Kind: sweep.Parallel, Q: 1},
		{Kind: sweep.Unbounded}, {Kind: sweep.Stack}, {Kind: sweep.Queue}, {Kind: sweep.RCU},
		{Kind: sweep.LFUniversal}, {Kind: sweep.List}, {Kind: sweep.HashSet}, {Kind: sweep.WFUniversal}}
	exact := []Workload{{Kind: sweep.SCU, S: 1}, {Kind: sweep.SCU, S: 3}, {Kind: sweep.SCU, Q: 4, S: 1},
		{Kind: sweep.FetchInc}, {Kind: sweep.Parallel, Q: 3}}
	g := Grid{V: Version, Seed: 0x9e3779b97f4a7c15}
	for _, w := range kinds {
		for _, s := range []string{"uniform", "sticky:0.5", "lottery"} {
			spec, err := sweep.ParseScheduler(s)
			if err != nil {
				panic(err)
			}
			for _, n := range []int{4, 16, 64} {
				for r := 0; r < 2; r++ {
					g.Jobs = append(g.Jobs, Job{Workload: w, N: n, Sched: spec, Steps: 60000,
						WarmupFraction: sweep.DefaultWarmupFraction, Label: fmt.Sprintf("%s/%s/n%d/r%d", w.Kind, s, n, r)})
				}
			}
		}
	}
	for i, w := range exact {
		for _, n := range []int{4, 16, 64} {
			for r := 0; r < 2; r++ {
				g.Jobs = append(g.Jobs, Job{Workload: w, N: n, Steps: 60000, WarmupFraction: sweep.DefaultWarmupFraction,
					Exact: true, Label: fmt.Sprintf("exact/%d/n%d/r%d", i, n, r)})
			}
		}
	}
	return g
}

// BenchmarkDecodeGrid times DecodeGrid against the encoding/json
// decoder it replaced, validation included on both, on the canonical
// bytes of a 16-job grid and of a 228-job grid.
func BenchmarkDecodeGrid(b *testing.B) {
	grids := []struct {
		name string
		g    Grid
	}{{"grid16", benchGrid()}, {"grid228", observedShapeGrid()}}
	for _, gc := range grids {
		body, err := MarshalGrid(gc.g)
		if err != nil {
			b.Fatal(err)
		}
		for _, dc := range []struct {
			name string
			fn   func() (Grid, error)
		}{
			{"new", func() (Grid, error) { return DecodeGrid(bytes.NewReader(body)) }},
			{"encoding_json", func() (Grid, error) { return oracleDecodeValid(body) }},
		} {
			b.Run(gc.name+"/"+dc.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					if _, err := dc.fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
