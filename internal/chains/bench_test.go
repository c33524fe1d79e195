package chains

import "testing"

// BenchmarkExactChain builds and solves the two largest exact chains
// of the grid-observed benchmark workload: SCU(0, 1) and parallel(3)
// at n = 64, with 2,144 and 2,145 states. CI's paired benchmark gate
// (.github/benchgate.sh) compares both rows against the base commit.
func BenchmarkExactChain(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (*Analysis, error)
	}{
		{"scu01/n64", func() (*Analysis, error) { a, _, err := SCUSystem(64); return a, err }},
		{"parallel3/n64", func() (*Analysis, error) { a, _, err := ParallelSystem(64, 3); return a, err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := bc.build()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.SystemLatency(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
