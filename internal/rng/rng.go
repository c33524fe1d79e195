// Package rng provides a small, deterministic pseudo-random number
// generator substrate used by every stochastic component in this
// repository.
//
// All simulation randomness flows through this package so that an
// experiment is fully reproducible from a single 64-bit seed,
// independent of the Go version (math/rand's algorithms have changed
// across releases). The generator is xoshiro256**, seeded through
// splitmix64, following the reference construction by Blackman and
// Vigna.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; give each goroutine its own Source (see Split).
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed via
// splitmix64, which guarantees a well-mixed non-zero internal state for
// any seed, including zero.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the generator state from seed via splitmix64.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm, s.s[i] = splitmix64(sm)
	}
	// splitmix64 outputs are zero only with negligible probability, but
	// the all-zero state is absorbing for xoshiro; guard it anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child generator from the current state.
// The parent advances by one draw, so successive Splits are distinct.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Stream returns the seed of the index-th child stream of master: the
// index-th output of the splitmix64 sequence seeded at master. Unlike
// Split, Stream is a pure function of (master, index), so a collection
// of jobs can be seeded deterministically and independently of the
// order in which they are executed — the basis of the sweep engine's
// reproducibility across worker counts.
func Stream(master, index uint64) uint64 {
	// splitmix64's state advances by the golden gamma per step; jumping
	// the state directly to master + index*gamma yields the index-th
	// output without iterating.
	_, out := splitmix64(master + index*goldenGamma)
	return out
}

// Uint64 returns the next 64 uniformly distributed bits. It is the
// one copy of the xoshiro256** step; it is written to stay under the
// compiler's inlining budget, so batch loops here and in callers get
// the step inlined into their loop bodies.
func (s *Source) Uint64() uint64 {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	s2 ^= s0
	s3 ^= s1
	s.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (s *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		hi = s.reject(hi, lo, n)
	}
	return hi
}

// reject finishes Lemire's method for a first product (hi, lo) with
// lo < n, a path taken with probability n / 2^64: it draws again while
// lo falls below 2^64 mod n and returns the accepted high word.
func (s *Source) reject(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(s.Uint64(), n)
	}
	return hi
}

// IntnBatch fills out[i] with srcs[i].Intn(n) for every source,
// advancing each source exactly as the scalar call would. It is the
// inlined form of Intn over a contiguous source slice: one loop body
// holds the xoshiro step and the Lemire multiply back to back, so the
// independent per-source chains pipeline instead of paying two calls
// per draw. It panics if n <= 0 or the lengths differ, like Intn.
func IntnBatch(srcs []Source, n int, out []int64) {
	if n <= 0 {
		panic("rng: IntnBatch called with non-positive n")
	}
	if len(out) != len(srcs) {
		panic("rng: IntnBatch output length differs from source count")
	}
	un := uint64(n)
	for i := range srcs {
		s := &srcs[i]
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo < un {
			hi = s.reject(hi, lo, un)
		}
		out[i] = int64(hi)
	}
}

// IntnAt is IntnBatch over a subset of the sources: it fills out[j]
// with srcs[lanes[j]].Intn(n) for every j, advancing only the listed
// sources, each exactly as the scalar call would. It panics if n <= 0,
// the lengths of lanes and out differ, or a lane is out of range.
func IntnAt(srcs []Source, lanes []int32, n int, out []int64) {
	if n <= 0 {
		panic("rng: IntnAt called with non-positive n")
	}
	if len(out) != len(lanes) {
		panic("rng: IntnAt output length differs from lane count")
	}
	un := uint64(n)
	for j, r := range lanes {
		s := &srcs[r]
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo < un {
			hi = s.reject(hi, lo, un)
		}
		out[j] = int64(hi)
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of
// precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// BernoulliThreshold returns ⌈p·2^53⌉, the integer form of Bernoulli's
// test for p in (0, 1): for the 64-bit output u that Float64 would
// consume, u>>11 < BernoulliThreshold(p) exactly when Float64() < p.
// Float64 is (u>>11)·2^-53 with no rounding, and p·2^53 is exact, so
// the two compares agree bit for bit. Outside (0, 1) Bernoulli draws
// nothing, so a caller must not draw for such p either.
func BernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative and sum to a
// positive value; otherwise an error is returned.
func (s *Source) Categorical(weights []float64) (int, error) {
	var total float64
	for _, w := range weights {
		if w < 0 {
			return 0, errors.New("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		return 0, errors.New("rng: weights sum to zero")
	}
	u := s.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i, nil
		}
	}
	// Floating-point slack: the accumulated sum may fall a hair short
	// of total; attribute the residual mass to the last positive
	// weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, errors.New("rng: weights sum to zero")
}

// goldenGamma is the splitmix64 state increment (2^64 / phi).
const goldenGamma = 0x9e3779b97f4a7c15

// splitmix64 advances the splitmix64 state and returns the new state
// and the output value.
func splitmix64(state uint64) (next, out uint64) {
	state += goldenGamma
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}
