package sched

import (
	"errors"

	"pwf/internal/rng"
)

// Replica batching. Every scheduler type holds K ≥ 1 independent
// replicas of one configuration and steps them in lockstep: one
// NextBatch call draws the next scheduled pid for every replica. The
// structures that depend only on the configuration (the active set,
// alias tables, the Fenwick tree, the phase clock) are shared across
// replicas, while each replica has its own rng stream. The streams are
// laid out contiguously, so a draw touches one cache-resident table
// and one 32-byte source.
//
// Determinism contract: replica r of a K-replica scheduler built from
// seeds[r] produces exactly the pid sequence of the same scheduler
// built with K = 1 from rng.New(seeds[r]). NextBatch reuses the
// sampling structures of Next and advances each replica's source
// exactly as Next would, though not necessarily one replica at a time
// (TestBatchDrawerMatchesScalar pins this).
//
// Crashes and ticket transfers are configuration, not per-replica
// state: Crash removes the pid from every replica at once, matching
// the sweep engine's pre-run crash plans, where every replica of a
// batch shares one crash count.

// Replica errors.
var (
	ErrNoReplicas = errors.New("sched: no rng source (nil source or no replica seeds)")
	ErrBatchLen   = errors.New("sched: pid buffer length differs from replica count")
)

// BatchDrawer is a Scheduler that draws the next scheduled process for
// each of K independent replicas in one call. Its Next draws the only
// replica and fails with ErrBatchLen unless K() == 1.
type BatchDrawer interface {
	Scheduler
	// NextBatch fills pids[r] with the process scheduled next in
	// replica r. len(pids) must equal K(). It fails only when every
	// process has crashed. Threshold is identical across replicas: it
	// is a property of the configuration, not of any replica's
	// randomness.
	NextBatch(pids []int32) error
	// K returns the number of replicas.
	K() int
}

// Every policy type is a BatchDrawer; all but Adversarial also
// support crashes.
var (
	_ BatchDrawer = (*Uniform)(nil)
	_ BatchDrawer = (*Weighted)(nil)
	_ BatchDrawer = (*Lottery)(nil)
	_ BatchDrawer = (*Sticky)(nil)
	_ BatchDrawer = (*Phased)(nil)
	_ BatchDrawer = (*RoundRobin)(nil)
	_ BatchDrawer = (*Adversarial)(nil)
	_ Crasher     = (*Uniform)(nil)
	_ Crasher     = (*Weighted)(nil)
	_ Crasher     = (*Lottery)(nil)
	_ Crasher     = (*Sticky)(nil)
	_ Crasher     = (*Phased)(nil)
	_ Crasher     = (*RoundRobin)(nil)
)

// sourceOf returns the single-replica source slice of a NewX
// constructor: a copy of *src, or none for a nil src.
func sourceOf(src *rng.Source) []rng.Source {
	if src == nil {
		return nil
	}
	return []rng.Source{*src}
}

// seededSources seeds one rng stream per replica, stored by value in
// one contiguous slice so consecutive draws in a batch walk memory
// linearly. Each source is seeded exactly as rng.New(seeds[r]) would
// be, which is what the determinism contract rests on.
func seededSources(seeds []uint64) []rng.Source {
	srcs := make([]rng.Source, len(seeds))
	for r, seed := range seeds {
		srcs[r].Seed(seed)
	}
	return srcs
}

// fill sets every replica's pid to the same process, for the
// deterministic schedulers.
func fill(pids []int32, pid int) {
	for r := range pids {
		pids[r] = int32(pid)
	}
}
