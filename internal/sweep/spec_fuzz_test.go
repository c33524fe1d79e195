package sweep

import (
	"math"
	"reflect"
	"testing"
)

// Bad scheduler parameters are rejected on both paths that accept a
// spec: Validate, which guards sweep submission, and the sched
// constructors behind build, at one and at three replicas. Before the
// two shared one check per policy, each of these rows slipped through
// at least one of them.
func TestBadSchedulerSpecsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		spec  SchedulerSpec
		n     int
		crash int // processes the job crashes before the run
	}{
		{"sticky NaN", SchedulerSpec{Kind: SchedSticky, Rho: nan}, 3, 0},
		{"sticky +Inf", SchedulerSpec{Kind: SchedSticky, Rho: inf}, 3, 0},
		{"weighted NaN", SchedulerSpec{Kind: SchedWeighted, Weights: []float64{1, nan}}, 2, 0},
		{"weighted +Inf", SchedulerSpec{Kind: SchedWeighted, Weights: []float64{1, inf}}, 2, 0},
		{"weighted sum overflows", SchedulerSpec{Kind: SchedWeighted, Weights: []float64{1e308, 1e308, 1}}, 3, 0},
		{"phased NaN", SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{{Weights: []float64{1, nan}, Steps: 5}}}, 2, 0},
		{"phased +Inf", SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{
			{Weights: []float64{1, 1}, Steps: 5}, {Weights: []float64{inf, 1}, Steps: 5}}}, 2, 0},
		{"phased sum overflows", SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{{Weights: []float64{1e308, 1e308}, Steps: 5}}}, 2, 0},
		{"lottery total overflows", SchedulerSpec{Kind: SchedLottery, Tickets: []int{math.MaxInt, 1}}, 2, 0},
		{"lottery halves overflow", SchedulerSpec{Kind: SchedLottery, Tickets: []int{math.MaxInt/2 + 1, math.MaxInt/2 + 1}}, 2, 0},
		{"adversary with a crash", SchedulerSpec{Kind: SchedAdversary}, 2, 1},
	} {
		job := Job{Workload: Workload{Kind: SCU, S: 1}, N: tc.n, Sched: tc.spec, Steps: 1, Crash: tc.crash}
		if err := job.Validate(); err == nil {
			t.Errorf("%s: Job.Validate accepted %v with %d crashed", tc.name, tc.spec, tc.crash)
		}
		if tc.crash > 0 {
			continue // the spec alone is fine; the job is not
		}
		if err := tc.spec.Validate(tc.n); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.spec)
		}
		for _, seeds := range [][]uint64{{1}, {1, 2, 3}} {
			if _, err := tc.spec.build(tc.n, seeds); err == nil {
				t.Errorf("%s: constructor accepted %v at K=%d", tc.name, tc.spec, len(seeds))
			}
		}
	}
}

// FuzzParseScheduler checks the scheduler grammar end to end: every
// parsed spec renders back to itself, and every spec that validates
// builds at one and at three replicas, draws 64 steps without a panic,
// and deals replica 0 of the three-replica scheduler the pids of the
// single-replica one.
func FuzzParseScheduler(f *testing.F) {
	for _, s := range []string{
		"uniform", "roundrobin", "sticky:0.9", "lottery", "lottery:1,2,4",
		"weighted", "weighted:0.5,0.25,0.25", "phased:3,1@50/1,3@50", "adversary:2",
		"lottery:9223372036854775807,1", "weighted:1e308,1e308,1",
	} {
		f.Add(s, uint8(4), uint64(7))
	}
	f.Fuzz(func(t *testing.T, s string, nRaw uint8, seed uint64) {
		spec, err := ParseScheduler(s)
		if err != nil {
			return
		}
		back, err := ParseScheduler(spec.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", s, spec.String(), err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("%q: round trip through %q gives %+v, want %+v", s, spec.String(), back, spec)
		}

		n := 1 + int(nRaw%16)
		switch {
		case spec.Tickets != nil:
			n = len(spec.Tickets)
		case spec.Weights != nil:
			n = len(spec.Weights)
		case len(spec.Phases) > 0:
			n = len(spec.Phases[0].Weights)
		}
		if spec.Validate(n) != nil {
			return
		}
		one, err := spec.build(n, []uint64{seed})
		if err != nil {
			t.Fatalf("%q validates for n=%d but does not build: %v", s, n, err)
		}
		three, err := spec.build(n, []uint64{seed, seed + 1, seed + 2})
		if err != nil {
			t.Fatalf("%q builds one replica but not three: %v", s, err)
		}
		pids := make([]int32, 3)
		for step := 0; step < 64; step++ {
			want, err := one.Next()
			if err != nil {
				t.Fatalf("%q step %d: %v", s, step, err)
			}
			if err := three.NextBatch(pids); err != nil {
				t.Fatalf("%q step %d: %v", s, step, err)
			}
			if int(pids[0]) != want {
				t.Fatalf("%q step %d: replica 0 drew %d, single replica %d", s, step, pids[0], want)
			}
		}
	})
}
