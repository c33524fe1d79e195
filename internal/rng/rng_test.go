package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded source produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSeedResets(t *testing.T) {
	s := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after reseed, draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square test over 10 buckets at significance well beyond 0.001.
	const (
		buckets = 10
		draws   = 100000
	)
	s := New(99)
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; critical value at p=0.001 is 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square = %.2f exceeds 27.88; counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniform draws = %v, want ~0.5", draws, mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(19)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestCategorical(t *testing.T) {
	s := New(23)
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const draws = 100000
	for i := 0; i < draws; i++ {
		idx, err := s.Categorical(weights)
		if err != nil {
			t.Fatalf("Categorical: %v", err)
		}
		counts[idx]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	s := New(29)
	if _, err := s.Categorical(nil); err == nil {
		t.Error("Categorical(nil) returned nil error")
	}
	if _, err := s.Categorical([]float64{0, 0}); err == nil {
		t.Error("Categorical(zeros) returned nil error")
	}
	if _, err := s.Categorical([]float64{1, -1}); err == nil {
		t.Error("Categorical(negative) returned nil error")
	}
}

func TestCategoricalZeroWeightNeverDrawn(t *testing.T) {
	s := New(31)
	weights := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		idx, err := s.Categorical(weights)
		if err != nil {
			t.Fatalf("Categorical: %v", err)
		}
		if idx != 1 {
			t.Fatalf("drew zero-weight category %d", idx)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(37)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child produced %d identical draws", same)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	s := New(41)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := s.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterministicAndDistinct(t *testing.T) {
	// Pure function of (master, index).
	if Stream(7, 3) != Stream(7, 3) {
		t.Fatal("Stream is not deterministic")
	}
	// Distinct indices and distinct masters yield distinct streams.
	seen := make(map[uint64]bool)
	for master := uint64(0); master < 4; master++ {
		for index := uint64(0); index < 256; index++ {
			s := Stream(master, index)
			if seen[s] {
				t.Fatalf("stream collision at master=%d index=%d", master, index)
			}
			seen[s] = true
		}
	}
}

func TestStreamSeedsIndependentSources(t *testing.T) {
	// Sources seeded from adjacent streams must not produce identical
	// output sequences.
	a, b := New(Stream(1, 0)), New(Stream(1, 1))
	same := true
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("adjacent streams produced identical sequences")
	}
}

// TestUint64MatchesReferenceStep checks the xoshiro256** step against
// a direct transcription of the reference algorithm by Blackman and
// Vigna, state word by state word.
func TestUint64MatchesReferenceStep(t *testing.T) {
	s := New(42)
	ref := s.s
	for i := 0; i < 1000; i++ {
		want := bits.RotateLeft64(ref[1]*5, 7) * 9
		tmp := ref[1] << 17
		ref[2] ^= ref[0]
		ref[3] ^= ref[1]
		ref[1] ^= ref[2]
		ref[0] ^= ref[3]
		ref[2] ^= tmp
		ref[3] = bits.RotateLeft64(ref[3], 45)
		if got := s.Uint64(); got != want || s.s != ref {
			t.Fatalf("step %d: output %#x state %x, reference %#x state %x", i, got, s.s, want, ref)
		}
	}
}

// sourceYielding returns a Source whose next Uint64 is u. The output is
// rotl(s[1]·5, 7)·9, and 5 and 9 are odd, so s[1] follows by undoing
// both multiplications mod 2^64 and the rotation.
func sourceYielding(u uint64) *Source {
	inverse := func(a uint64) uint64 {
		x := a // correct to 3 bits for odd a; each step doubles that
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	return &Source{s: [4]uint64{1, bits.RotateLeft64(u*inverse(9), -7) * inverse(5), 3, 4}}
}

// TestBernoulliThresholdMatchesFloat64 checks the integer stay test
// against Float64() < p where they could part: at the outputs u whose
// top 53 bits lie on either side of the threshold, with the 11 bits
// Float64 drops all clear and all set.
func TestBernoulliThresholdMatchesFloat64(t *testing.T) {
	for _, p := range []float64{
		0x1p-60, 0x1p-53, 0x1p-52, 0.1, 1.0 / 3,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
		0.7, 1 - 0x1p-52, 1 - 0x1p-53,
	} {
		thr := BernoulliThreshold(p)
		for _, m := range []uint64{0, thr - 1, thr, thr + 1, 1<<53 - 1} {
			if m >= 1<<53 {
				continue // thr - 1 wrapped, or thr + 1 past the top
			}
			for _, low := range []uint64{0, 1<<11 - 1} {
				u := m<<11 | low
				if got := sourceYielding(u).Uint64(); got != u {
					t.Fatalf("sourceYielding(%#x) yields %#x", u, got)
				}
				want := sourceYielding(u).Float64() < p
				if got := u>>11 < thr; got != want {
					t.Errorf("p = %v, u = %#x: threshold %d says %v, Float64 says %v", p, u, thr, got, want)
				}
			}
		}
	}
}

// TestIntnBatchesMatchIntn checks IntnBatch over every source and
// IntnAt over a subset against per-source Intn calls, including an n
// for which Lemire's method rejects about one draw in four; IntnAt
// must leave the unlisted sources untouched.
func TestIntnBatchesMatchIntn(t *testing.T) {
	lanes := []int32{4, 0, 5, 2}
	for _, n := range []int{1, 7, 1000, 1<<62 + 1} {
		srcs := make([]Source, 6)
		refs := make([]Source, 6)
		for r := range srcs {
			srcs[r].Seed(uint64(r))
			refs[r].Seed(uint64(r))
		}
		all := make([]int64, len(srcs))
		at := make([]int64, len(lanes))
		for round := 0; round < 200; round++ {
			IntnBatch(srcs, n, all)
			for r := range refs {
				if want := refs[r].Intn(n); all[r] != int64(want) {
					t.Fatalf("n = %d round %d: IntnBatch[%d] = %d, Intn %d", n, round, r, all[r], want)
				}
			}
			IntnAt(srcs, lanes, n, at)
			for j, r := range lanes {
				if want := refs[r].Intn(n); at[j] != int64(want) {
					t.Fatalf("n = %d round %d: IntnAt lane %d = %d, Intn %d", n, round, r, at[j], want)
				}
			}
			if srcs[1] != refs[1] || srcs[3] != refs[3] {
				t.Fatalf("n = %d round %d: IntnAt advanced an unlisted source", n, round)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Intn(1000)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Float64()
	}
	_ = sink
}
