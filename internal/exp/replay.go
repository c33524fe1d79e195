package exp

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/native"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

// ReplaySchedule (E14) closes the loop between the model and the
// machine: it records a real OS-scheduler interleaving with the
// atomic-ticket method, replays that exact schedule into the
// simulator driving SCU(0, 1), and compares latency and fairness with
// the uniform stochastic model on the same workload.
//
// On machines where the OS runs goroutines in long slices (few cores,
// aggressive batching) the replayed schedule behaves like a very
// sticky stochastic scheduler: latency drops (consecutive steps finish
// operations solo, cf. E13) while long-run fairness is preserved —
// evidence that the uniform model's latency prediction is
// conservative for real schedulers, as the paper's Appendix A argues.
func ReplaySchedule(cfg Config) (*Table, error) {
	n := cfg.num(8, 4)
	ops := cfg.num(250000, 25000)

	recorded, err := native.RecordSchedule(n, ops)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	replay, err := sched.NewReplay(n, recorded.Order(), true /* loop */)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E14",
		Title: "Replay: SCU(0,1) under the recorded real schedule vs the uniform model",
		Header: []string{
			"scheduler", "steps", "W", "W_i/(n*W)", "fairness", "starved",
		},
	}

	window := uint64(recorded.Len())
	if window < 1000 {
		return nil, fmt.Errorf("recorded schedule too short: %d steps", window)
	}

	for _, tc := range []struct {
		name  string
		build func() (sched.Scheduler, error)
	}{
		{"replayed real schedule", func() (sched.Scheduler, error) { return replay, nil }},
		{"uniform model", func() (sched.Scheduler, error) {
			return newUniform(n, cfg.Seed)
		}},
	} {
		s, err := tc.build()
		if err != nil {
			return nil, err
		}
		mem, err := shmem.New(scu.SCULayout(1))
		if err != nil {
			return nil, err
		}
		procs, err := scu.NewSCUGroup(n, 0, 1, 0)
		if err != nil {
			return nil, err
		}
		sim, err := machine.New(mem, procs, s)
		if err != nil {
			return nil, err
		}
		if err := sim.Run(window / 10); err != nil {
			return nil, err
		}
		sim.ResetMetrics()
		if err := sim.Run(window); err != nil {
			return nil, err
		}
		w, err := sim.SystemLatency()
		if err != nil {
			return nil, err
		}
		wi, err := sim.MeanIndividualLatency()
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.name, sim.Steps(), w, wi/(float64(n)*w),
			sim.FairnessIndex(), len(sim.StarvedProcesses()))
	}
	t.Note = "the same algorithm, once under the schedule this machine actually produced " +
		"and once under the uniform model: both are fair and starvation-free; the real " +
		"schedule's local stickiness lowers W, so the model's O(√n) is a conservative bound"
	return t, nil
}
