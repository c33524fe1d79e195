package exp

import (
	"fmt"

	"pwf/internal/ballsbins"
	"pwf/internal/chains"
	"pwf/internal/rng"
	"pwf/internal/stats"
)

// BallsBinsPhases reproduces the Section 6.1.3 analysis: the iterated
// balls-into-bins game's mean phase length against the exact chain
// latency and the Lemma 8 bound, plus the Lemma 9 range dynamics.
func BallsBinsPhases(cfg Config) (*Table, error) {
	var ns []int
	if cfg.Quick {
		ns = []int{8, 16, 32}
	} else {
		ns = []int{8, 16, 32, 64, 128}
	}
	phases := cfg.num(30000, 3000)

	t := &Table{
		ID:    "E11",
		Title: "Lemmas 8-9: iterated balls-into-bins phases",
		Header: []string{
			"n", "mean phase", "exact W", "Lemma 8 bound (stationary a,b)",
			"range-3 fraction", "mean a / n",
		},
	}
	for _, n := range ns {
		g, err := ballsbins.New(n, rng.New(cfg.Seed+uint64(n)))
		if err != nil {
			return nil, err
		}
		g.RunPhases(phases / 10) // warmup
		var (
			length stats.Summary
			aFrac  stats.Summary
			range3 int
		)
		var boundSum float64
		results := g.RunPhases(phases)
		for _, r := range results {
			length.Add(float64(r.Length))
			aFrac.Add(float64(r.AStart) / float64(n))
			rg, err := ballsbins.RangeOf(r.AStart, n, ballsbins.DefaultRangeC)
			if err != nil {
				return nil, err
			}
			if rg == 3 {
				range3++
			}
			b, err := ballsbins.PhaseLengthBound(r.AStart, r.BStart, n, 4)
			if err != nil {
				return nil, err
			}
			boundSum += b
		}

		// Exact latency by the lazy iteration: the direct solve is
		// capped at n=128, and the pinned E11 values come from the
		// iteration.
		w, err := chains.SCUSystemLatencyLarge(n)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, length.Mean(), w, boundSum/float64(len(results)),
			float64(range3)/float64(len(results)), aFrac.Mean())
	}
	t.Note = fmt.Sprintf(
		"the game's mean phase length matches the exact system chain latency "+
			"(the game IS the chain), stays under the Lemma 8 bound, and range 3 "+
			"(a < n/%d) is essentially never visited (Lemma 9)", int(ballsbins.DefaultRangeC))
	return t, nil
}
