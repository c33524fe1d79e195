package api

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// v2Header is a checkpoint header line: it embeds a grid, but is not
// one.
const v2Header = `{"v":2,"format":"pwf-checkpoint","grid":{"v":1,"seed":7,"jobs":[` +
	`{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"uniform"},"steps":2000,"warmup_fraction":0.1}]}}`

// FuzzDecodeGrid feeds DecodeGrid arbitrary bytes. It must never
// panic, and every grid it accepts must re-encode canonically to bytes
// that decode to an equal grid. It also holds the decoder to
// encoding/json (oracleDecodeGrid), both before validation: (a) any
// grid the decoder accepts, encoding/json accepts to a
// reflect.DeepEqual grid, nil and empty lists alike; (b) for any grid
// encoding/json accepts, the decoder accepts its canonical encoding to
// the same grid. So the two differ only in syntax the decoder refuses.
func FuzzDecodeGrid(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "grid_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(golden),
		`{"v":1,"seed":3,"jobs":[{"workload":{"kind":"fetchinc"},"n":4,"sched":"sticky:0.9","steps":100}]}`,
		`{"v":1,"seed":3,"jobs":[{"workload":{"kind":"scu","s":2},"n":3,"sched":"phased:3,1,1@50/1,1,3@50","steps":100}]}`,
		`{"v":1,"seed":3,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"weighted","weights":[1,2]},"steps":9}]}`,
		`{"v":2,"seed":3,"jobs":[]}`,
		`{"v":1,"seed":3,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"steps":9}]} {}`,
		// Non-grids: the files checkpoint.Load must refuse.
		`{"v":1,"index":0,"job":{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"uniform"},"steps":2000}}`,
		v2Header + "\n" + `{"v":7,"index":0}`,
		v2Header + "\n" + `{"v":1,"index":-5}`,
		// Syntax that encoding/json takes and the decoder refuses.
		gridWith(`"n":2,"sched":{"kind":"sticky","rho":0.5,"rh0":0.9}`),
		gridWith(`"n":2,"N":4,"\u017fteps":100`),
		`{"v":1,"seed":1,"jobs":[]}]`,
		// Escapes, surrogates, invalid UTF-8, nulls, empty lists.
		gridWith("\"n\":2,\"label\":\"\\ud83d\\ude00\\ud83d\\u00e9\xff\\/\""),
		gridWith(`"n":null,"sched":{"kind":"lottery","tickets":[],"phases":[{"weights":null,"steps":1}]},"label":null`),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := DecodeGrid(bytes.NewReader(data)); err == nil {
			b, err := MarshalGrid(g)
			if err != nil {
				t.Fatalf("accepted grid does not re-encode: %v", err)
			}
			back, err := DecodeGrid(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("canonical encoding %s does not decode: %v", b, err)
			}
			if !reflect.DeepEqual(back, canonical(g)) {
				t.Fatalf("round trip through %s:\n got %+v\nwant %+v", b, back, g)
			}
		}
		g, err := decodeGrid(data)
		want, wantErr := oracleDecodeGrid(data)
		if err == nil && (wantErr != nil || !reflect.DeepEqual(g, want)) {
			t.Fatalf("accepted as %#v; encoding/json gives %#v, err %v", g, want, wantErr)
		}
		if wantErr != nil {
			return
		}
		b, err := MarshalGrid(want)
		if err != nil {
			t.Fatalf("grid encoding/json accepts does not re-encode: %v", err)
		}
		if g, err := decodeGrid(b); err != nil || !reflect.DeepEqual(g, canonical(want)) {
			t.Fatalf("canonical encoding %s of encoding/json's %#v decodes to %#v, err %v", b, want, g, err)
		}
	})
}
