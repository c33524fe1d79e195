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

// FuzzDecodeGrid feeds DecodeGrid arbitrary bytes: it must never
// panic, and every grid it accepts re-encodes canonically to bytes
// that decode to an equal grid.
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
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := MarshalGrid(g)
		if err != nil {
			t.Fatalf("accepted grid does not re-encode: %v", err)
		}
		back, err := DecodeGrid(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", b, err)
		}
		if !reflect.DeepEqual(back, g) {
			t.Fatalf("round trip through %s:\n got %+v\nwant %+v", b, back, g)
		}
	})
}
