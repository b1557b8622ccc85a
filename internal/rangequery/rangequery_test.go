package rangequery

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/workload"
)

// exactFactory builds exact per-level accumulators, isolating the
// dyadic plumbing from sketch noise.
func exactFactory(_, size int, _ *rand.Rand) PointSketch { return stream.NewExact(size) }

// cmFactory builds wide Count-Median levels (quasi-exact).
func cmFactory(s, d int) Factory {
	return func(_, size int, r *rand.Rand) PointSketch {
		// Rows stay at s even when the level is smaller: small top
		// levels are dense (all mass aggregated into few coordinates),
		// so shrinking the row width there causes heavy collisions.
		return must(sketch.NewCountMedian(sketch.Config{N: size, Rows: s, Depth: d}, r))
	}
}

// l2Factory builds bias-aware levels.
func l2Factory(k int) Factory {
	return func(_, size int, r *rand.Rand) PointSketch {
		kk := k
		if 4*kk > size {
			kk = size / 4
		}
		if kk < 1 {
			kk = 1
		}
		return core.New(core.Config{Scheme: core.L2, N: size, K: kk}, r)
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, exactFactory, rand.New(rand.NewSource(1)))
}

func TestLevelCount(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {1024, 11}, {1000, 11},
	} {
		s := New(c.n, exactFactory, rand.New(rand.NewSource(2)))
		if s.Levels() != c.want {
			t.Errorf("n=%d: Levels = %d, want %d", c.n, s.Levels(), c.want)
		}
		if s.Dim() != c.n {
			t.Errorf("n=%d: Dim = %d", c.n, s.Dim())
		}
	}
}

func TestRangeSumExactLevels(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 64, 100, 1000} {
		s := New(n, exactFactory, r)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(r.Intn(100) - 20)
			s.Update(i, x[i])
		}
		prefix := make([]float64, n+1)
		for i, v := range x {
			prefix[i+1] = prefix[i] + v
		}
		// Exhaustive on small n, sampled on large.
		step := 1
		if n > 100 {
			step = 13
		}
		for lo := 0; lo <= n; lo += step {
			for hi := lo; hi <= n; hi += step {
				want := prefix[hi] - prefix[lo]
				if got := s.RangeSum(lo, hi); math.Abs(got-want) > 1e-9 {
					t.Fatalf("n=%d: RangeSum(%d,%d) = %f, want %f", n, lo, hi, got, want)
				}
			}
		}
		if math.Abs(s.Total()-prefix[n]) > 1e-9 {
			t.Fatalf("n=%d: Total = %f, want %f", n, s.Total(), prefix[n])
		}
	}
}

func TestRangeSumPanicsOnBadRange(t *testing.T) {
	s := New(10, exactFactory, rand.New(rand.NewSource(4)))
	for _, c := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RangeSum(%d,%d) should panic", c[0], c[1])
				}
			}()
			s.RangeSum(c[0], c[1])
		}()
	}
}

func TestUpdatePanicsOutOfRange(t *testing.T) {
	s := New(10, exactFactory, rand.New(rand.NewSource(5)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Update(10, 1)
}

// Property: with exact levels, RangeSum always equals the direct sum,
// for random dimensions, vectors and ranges.
func TestRangeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		s := New(n, exactFactory, r)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
			s.Update(i, x[i])
		}
		for trial := 0; trial < 20; trial++ {
			lo := r.Intn(n + 1)
			hi := lo + r.Intn(n+1-lo)
			var want float64
			for i := lo; i < hi; i++ {
				want += x[i]
			}
			if math.Abs(s.RangeSum(lo, hi)-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Count-Median levels are accurate on sparse vectors (small ℓ1 tail).
// On dense *biased* vectors they overestimate badly — which is exactly
// the paper's motivation and what TestRangeSumBiasAwareLevels below
// shows the ℓ2-S/R levels fix.
func TestRangeSumWithCountMedianLevels(t *testing.T) {
	const n = 4096
	r := rand.New(rand.NewSource(6))
	s := New(n, cmFactory(512, 9), r)
	x := make([]float64, n)
	for j := 0; j < 50; j++ { // sparse: 50 non-zeros
		x[r.Intn(n)] = float64(10 + r.Intn(90))
	}
	for i, v := range x {
		if v != 0 {
			s.Update(i, v)
		}
	}
	var exact float64
	for _, v := range x[100:1100] {
		exact += v
	}
	got := s.RangeSum(100, 1100)
	if math.Abs(got-exact) > 0.05*exact+1 {
		t.Errorf("RangeSum = %f, want within 5%% of %f", got, exact)
	}
}

// The bias problem propagates to range queries: on dense biased data,
// Count-Median levels overshoot while bias-aware levels stay accurate.
func TestRangeSumBiasedDataCMOvershoots(t *testing.T) {
	const n = 4096
	r := rand.New(rand.NewSource(66))
	cm := New(n, cmFactory(512, 9), rand.New(rand.NewSource(67)))
	l2 := New(n, l2Factory(64), rand.New(rand.NewSource(68)))
	x := workload.Gaussian{Bias: 10, Sigma: 2}.Vector(n, r)
	for i, v := range x {
		cm.Update(i, v)
		l2.Update(i, v)
	}
	var exact float64
	for _, v := range x[100:1100] {
		exact += v
	}
	cmErr := math.Abs(cm.RangeSum(100, 1100) - exact)
	l2Err := math.Abs(l2.RangeSum(100, 1100) - exact)
	if l2Err >= cmErr {
		t.Errorf("bias-aware range error %f should beat Count-Median %f", l2Err, cmErr)
	}
}

// Bias-aware levels: on biased data, range sums from an ℓ2-S/R stack
// should be accurate because each level independently discovers the
// (scaled) bias.
func TestRangeSumBiasAwareLevels(t *testing.T) {
	const n = 8192
	r := rand.New(rand.NewSource(7))
	s := New(n, l2Factory(64), r)
	x := workload.Gaussian{Bias: 100, Sigma: 15}.Vector(n, r)
	for i, v := range x {
		s.Update(i, v)
	}
	for _, c := range [][2]int{{0, n}, {500, 2500}, {4000, 4100}} {
		var exact float64
		for _, v := range x[c[0]:c[1]] {
			exact += v
		}
		got := s.RangeSum(c[0], c[1])
		if math.Abs(got-exact) > 0.10*exact+200 {
			t.Errorf("RangeSum(%d,%d) = %f, want ≈%f", c[0], c[1], got, exact)
		}
	}
}

func TestQuantileUniform(t *testing.T) {
	const n = 4096
	r := rand.New(rand.NewSource(8))
	s := New(n, exactFactory, r)
	// Uniform unit mass: quantile q should land at ≈ q·n.
	for i := 0; i < n; i++ {
		s.Update(i, 1)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
		got := s.Quantile(q)
		want := int(q * n)
		if got < want-1 || got > want+1 {
			t.Errorf("Quantile(%g) = %d, want ≈%d", q, got, want)
		}
	}
}

func TestQuantileSkewed(t *testing.T) {
	const n = 1000
	s := New(n, exactFactory, rand.New(rand.NewSource(9)))
	// All mass on coordinate 700.
	s.Update(700, 100)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := s.Quantile(q); got != 700 {
			t.Errorf("Quantile(%g) = %d, want 700", q, got)
		}
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	s := New(10, exactFactory, rand.New(rand.NewSource(10)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Quantile(1.5)
}

func TestWordsAccumulates(t *testing.T) {
	s := New(1024, cmFactory(64, 3), rand.New(rand.NewSource(11)))
	// Levels: 1024, 512, ..., 1 → 11 levels, each 64×3 words.
	if got, want := s.Words(), 11*64*3; got != want {
		t.Errorf("Words = %d, want %d", got, want)
	}
}

func BenchmarkRangeSum(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(12))
	s := New(n, cmFactory(256, 7), r)
	for i := 0; i < n; i++ {
		s.Update(i, float64(r.Intn(50)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i & (n/2 - 1)
		s.RangeSum(lo, lo+n/4)
	}
}

func BenchmarkDyadicUpdate(b *testing.B) {
	const n = 1 << 16
	s := New(n, cmFactory(256, 7), rand.New(rand.NewSource(13)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i&(n-1), 1)
	}
}
