package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sketch"
	"repro/internal/vecmath"
)

// paperExample is the running example of §1: k = 2, n = 10.
func paperExample() ([]float64, int) {
	return []float64{3, 100, 101, 500, 102, 98, 97, 100, 99, 103}, 2
}

func biasedGaussian(n int, bias, sigma float64, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Round(r.NormFloat64()*sigma + bias)
	}
	return x
}

func feed(s sketch.Sketch, x []float64) {
	for i, v := range x {
		if v != 0 {
			s.Update(i, v)
		}
	}
}

func TestL1ConfigDefaults(t *testing.T) {
	l := New(Config{Scheme: L1, N: 1000, K: 8}, rand.New(rand.NewSource(1)))
	cfg := l.Config()
	if cfg.Cs != 4 || cfg.Depth != 9 {
		t.Errorf("defaults: Cs=%d Depth=%d, want 4 and 9", cfg.Cs, cfg.Depth)
	}
	if cfg.SampleCount != defaultSampleCount(1000) {
		t.Errorf("SampleCount = %d, want %d", cfg.SampleCount, defaultSampleCount(1000))
	}
	if cfg.Estimator != EstimatorSampledMedian {
		t.Errorf("Estimator = %v, want sampled-median", cfg.Estimator)
	}
}

func TestL2ConfigDefaults(t *testing.T) {
	l := New(Config{Scheme: L2, N: 1000, K: 8}, rand.New(rand.NewSource(1)))
	cfg := l.Config()
	if cfg.Cs != 4 || cfg.Depth != 9 || cfg.Estimator != EstimatorMedianBucket {
		t.Errorf("unexpected defaults %+v", cfg)
	}
}

// Every case is defaulted first and must still fail validation; the
// defaults never repair an explicitly invalid value.
func TestConfigValidation(t *testing.T) {
	for _, c := range []Config{
		{Scheme: L1, N: 0, K: 1},
		{Scheme: L1, N: -1, K: 1},
		{Scheme: L1, N: 10, K: 0},
		{Scheme: L1, N: 10, K: -1},
		{Scheme: L1, N: 10, K: 1, Cs: 2},
		{Scheme: L1, N: 10, K: 1, Depth: -1},
		{Scheme: L1, N: 10, K: 1, SampleCount: -5},
		{Scheme: L1, N: 10, K: 1, Estimator: EstimatorMedianBucket}, // not valid for ℓ1
		{Scheme: L2, N: 0, K: 1},
		{Scheme: L2, N: -1, K: 1},
		{Scheme: L2, N: 10, K: 0},
		{Scheme: L2, N: 10, K: -1},
		{Scheme: L2, N: 10, K: 1, Cs: 3},
		{Scheme: L2, N: 10, K: 1, Depth: -1},
		{Scheme: L2, N: 10, K: 1, SampleCount: -5},
		{Scheme: L2, N: 10, K: 1, Estimator: EstimatorKind(99)},
		{N: 10, K: 1},            // no scheme
		{Scheme: 3, N: 10, K: 1}, // unknown scheme
	} {
		if c.withDefaults().Validate() == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestEstimatorKindString(t *testing.T) {
	cases := map[EstimatorKind]string{
		EstimatorDefault:       "default",
		EstimatorSampledMedian: "sampled-median",
		EstimatorMedianBucket:  "median-bucket",
		EstimatorMean:          "mean",
		EstimatorKind(99):      "EstimatorKind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

// On the paper's own example the bias estimates should land near 100.
func TestBiasEstimateOnPaperExample(t *testing.T) {
	x, k := paperExample()
	l1 := New(Config{Scheme: L1, N: len(x), K: k, SampleCount: 101}, rand.New(rand.NewSource(2)))
	feed(l1, x)
	if b := l1.Bias(); math.Abs(b-100) > 4 {
		t.Errorf("ℓ1 bias = %f, want ≈100", b)
	}
	l2 := New(Config{Scheme: L2, N: len(x), K: k}, rand.New(rand.NewSource(3)))
	feed(l2, x)
	if b := l2.Bias(); math.Abs(b-100) > 60 {
		// n=10 is tiny; the middle buckets may still include an outlier.
		t.Errorf("ℓ2 bias = %f, want loosely ≈100", b)
	}
}

// The headline claim on realistic sizes: ℓ1/ℓ2-S/R recover a biased
// Gaussian vector far more accurately than Count-Median/Count-Sketch
// at the same size (Figure 1's qualitative shape).
func TestBiasAwareBeatsClassicalOnBiasedGaussian(t *testing.T) {
	const n, k = 50000, 64
	x := biasedGaussian(n, 100, 15, 4)
	seedA, seedB := int64(5), int64(6)

	l1 := New(Config{Scheme: L1, N: n, K: k, SampleCount: 4 * k}, rand.New(rand.NewSource(seedA)))
	l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(seedB)))
	cm := must(sketch.NewCountMedian(sketch.Config{N: n, Rows: 4 * k, Depth: 10}, rand.New(rand.NewSource(seedA))))
	cs := must(sketch.NewCountSketch(sketch.Config{N: n, Rows: 4 * k, Depth: 10}, rand.New(rand.NewSource(seedB))))
	for _, s := range []sketch.Sketch{l1, l2, cm, cs} {
		feed(s, x)
	}

	l1Err := vecmath.AvgAbsErr(x, sketch.Recover(l1))
	l2Err := vecmath.AvgAbsErr(x, sketch.Recover(l2))
	cmErr := vecmath.AvgAbsErr(x, sketch.Recover(cm))
	csErr := vecmath.AvgAbsErr(x, sketch.Recover(cs))

	if l1Err >= cmErr/3 {
		t.Errorf("ℓ1-S/R avg err %f should be ≪ Count-Median %f", l1Err, cmErr)
	}
	// The improvement factor is parameter dependent (noise per bucket
	// scales with sqrt(n/s)·σ after de-biasing versus
	// sqrt(n/s)·sqrt(σ²+b²) before); at these sizes a 2× gap is the
	// conservative expectation.
	if l2Err >= csErr/2 {
		t.Errorf("ℓ2-S/R avg err %f should be ≪ Count-Sketch %f", l2Err, csErr)
	}
}

// Theorem 3 quantitative check: the bulk of coordinates obey
// C/k · min_β Err_1^k(x−β) for a modest constant C.
func TestL1TheoremBound(t *testing.T) {
	const n, k = 30000, 32
	r := rand.New(rand.NewSource(7))
	x := biasedGaussian(n, 250, 10, 8)
	for i := 0; i < k; i++ {
		x[r.Intn(n)] += 50000 // outliers
	}
	l1 := New(Config{Scheme: L1, N: n, K: k, Depth: 11, SampleCount: 8 * k}, r)
	feed(l1, x)
	xhat := sketch.Recover(l1)
	_, opt := vecmath.MinBetaErrK(x, k, 1)
	bound := opt / float64(k)
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = math.Abs(x[i] - xhat[i])
	}
	if got := vecmath.Percentile(errs, 0.995); got > 8*bound {
		t.Errorf("ℓ1-S/R P99.5 err %f exceeds 8×bound %f", got, 8*bound)
	}
}

// Theorem 4 quantitative check.
func TestL2TheoremBound(t *testing.T) {
	const n, k = 30000, 32
	r := rand.New(rand.NewSource(9))
	x := biasedGaussian(n, 250, 10, 10)
	for i := 0; i < k; i++ {
		x[r.Intn(n)] += 50000
	}
	l2 := New(Config{Scheme: L2, N: n, K: k, Depth: 11}, r)
	feed(l2, x)
	xhat := sketch.Recover(l2)
	_, opt := vecmath.MinBetaErrK(x, k, 2)
	bound := opt / math.Sqrt(float64(k))
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = math.Abs(x[i] - xhat[i])
	}
	if got := vecmath.Percentile(errs, 0.995); got > 8*bound {
		t.Errorf("ℓ2-S/R P99.5 err %f exceeds 8×bound %f", got, 8*bound)
	}
}

// §4.1's warm-up: the mean is ruined by extreme outliers while the
// sampled median is not.
func TestMeanEstimatorContaminated(t *testing.T) {
	const n = 10000
	x := make([]float64, n)
	for i := range x {
		x[i] = 50
	}
	x[0], x[1] = 1e12, 1e12

	mean := New(Config{Scheme: L1, N: n, K: 2, Estimator: EstimatorMean}, rand.New(rand.NewSource(11)))
	med := New(Config{Scheme: L1, N: n, K: 2, SampleCount: 401}, rand.New(rand.NewSource(12)))
	feed(mean, x)
	feed(med, x)
	if b := med.Bias(); math.Abs(b-50) > 1e-9 {
		t.Errorf("sampled-median bias = %f, want 50", b)
	}
	if b := mean.Bias(); math.Abs(b-50) < 1e6 {
		t.Errorf("mean bias = %f should be contaminated (far from 50)", b)
	}
}

// sortBias is the reference implementation of Algorithm 4 line 2:
// order the buckets by w_i/π_i (ties by id, matching the Bias-Heap's
// total order), exclude the top and bottom (s−2k)/2, and average the
// rest — falling back to the global average when the middle is empty.
func sortBias(e *medianBucketEstimator) float64 {
	s := len(e.w)
	ids := make([]int, s)
	for i := range ids {
		ids[i] = i
	}
	key := func(i int) float64 {
		if e.pi[i] == 0 {
			return 0
		}
		return e.w[i] / e.pi[i]
	}
	sort.Slice(ids, func(a, b int) bool {
		ka, kb := key(ids[a]), key(ids[b])
		if ka != kb {
			return ka < kb
		}
		return ids[a] < ids[b]
	})
	mid := 2 * e.k
	topSize := (s - mid) / 2
	botSize := (s - mid) - topSize
	var wSum, piSum float64
	for _, id := range ids[botSize : s-topSize] {
		wSum += e.w[id]
		piSum += e.pi[id]
	}
	if piSum > 0 {
		return wSum / piSum
	}
	var wTot, piTot float64
	for i := range e.w {
		wTot += e.w[i]
		piTot += e.pi[i]
	}
	if piTot > 0 {
		return wTot / piTot
	}
	return 0
}

// The streaming Bias-Heap must agree with the sort-at-query recovery
// of Algorithm 4 on the same bucket state — mid-stream, after a merge,
// and after a state restore.
func TestBiasHeapMatchesSort(t *testing.T) {
	const n, k = 5000, 16
	x := biasedGaussian(n, 77, 9, 13)
	mk := func() *SR { return New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(14))) }
	check := func(l *SR, when string) {
		t.Helper()
		if got, want := l.Bias(), sortBias(l.est.(*medianBucketEstimator)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: heap bias %f != sorted bias %f", when, got, want)
		}
	}
	a := mk()
	for i, v := range x {
		a.Update(i, v)
		if i%997 == 0 {
			check(a, fmt.Sprintf("mid-stream at %d", i))
		}
	}
	check(a, "end of stream")

	b := mk()
	for i := 0; i < n; i += 7 {
		b.Update(i, 900)
	}
	if err := b.MergeFrom(a); err != nil {
		t.Fatal(err)
	}
	check(b, "after merge")

	est := b.est.(*medianBucketEstimator)
	state := est.State()
	for j := range state {
		state[j] = -state[j] / 3
	}
	if err := est.SetState(state); err != nil {
		t.Fatal(err)
	}
	check(b, "after SetState")
}

// Linearity: merging per-site sketches equals sketching the global
// vector, for both schemes and all estimator kinds (§1's distributed
// model).
func TestMergeEqualsWhole(t *testing.T) {
	const n, k, sites = 4000, 8, 3
	r := rand.New(rand.NewSource(15))
	global := make([]float64, n)
	parts := make([][]float64, sites)
	for p := range parts {
		parts[p] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for p := 0; p < sites; p++ {
			v := math.Round(r.NormFloat64()*5 + 30)
			parts[p][i] = v
			global[i] += v
		}
	}

	t.Run("l1", func(t *testing.T) {
		for _, est := range []EstimatorKind{EstimatorSampledMedian, EstimatorMean} {
			cfg := Config{Scheme: L1, N: n, K: k, Estimator: est, SampleCount: 64}
			whole := New(cfg, rand.New(rand.NewSource(16)))
			feed(whole, global)
			merged := New(cfg, rand.New(rand.NewSource(16)))
			feed(merged, parts[0])
			for p := 1; p < sites; p++ {
				site := New(cfg, rand.New(rand.NewSource(16)))
				feed(site, parts[p])
				if err := merged.MergeFrom(site); err != nil {
					t.Fatalf("est %v: merge: %v", est, err)
				}
			}
			for i := 0; i < n; i += 53 {
				if w, m := whole.Query(i), merged.Query(i); math.Abs(w-m) > 1e-6 {
					t.Fatalf("est %v: query %d: whole %f merged %f", est, i, w, m)
				}
			}
		}
	})

	t.Run("l2", func(t *testing.T) {
		cfg := Config{Scheme: L2, N: n, K: k}
		whole := New(cfg, rand.New(rand.NewSource(17)))
		feed(whole, global)
		merged := New(cfg, rand.New(rand.NewSource(17)))
		feed(merged, parts[0])
		for p := 1; p < sites; p++ {
			site := New(cfg, rand.New(rand.NewSource(17)))
			feed(site, parts[p])
			if err := merged.MergeFrom(site); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		for i := 0; i < n; i += 53 {
			if w, m := whole.Query(i), merged.Query(i); math.Abs(w-m) > 1e-6 {
				t.Fatalf("query %d: whole %f merged %f", i, w, m)
			}
		}
	})
}

func TestMergeIncompatible(t *testing.T) {
	mk := func(cfg Config, seed int64) *SR { return New(cfg, rand.New(rand.NewSource(seed))) }
	l1 := Config{Scheme: L1, N: 100, K: 4}
	l2 := Config{Scheme: L2, N: 100, K: 4}
	l1mean := Config{Scheme: L1, N: 100, K: 4, SampleCount: 1, Estimator: EstimatorMean}
	cm := must(sketch.NewCountMedian(sketch.Config{N: 100, Rows: 16, Depth: 9}, rand.New(rand.NewSource(24))))
	for name, pair := range map[string][2]sketch.Linear{
		"ℓ1 different K":       {mk(l1, 18), mk(Config{Scheme: L1, N: 100, K: 8}, 18)},
		"ℓ1 different seeds":   {mk(l1, 18), mk(l1, 19)},
		"ℓ2 different K":       {mk(l2, 20), mk(Config{Scheme: L2, N: 100, K: 8}, 20)},
		"ℓ2 different seeds":   {mk(l2, 20), mk(l2, 21)},
		"ℓ1 into ℓ2":           {mk(l2, 22), mk(l1, 22)},
		"ℓ2 into ℓ1":           {mk(l1, 22), mk(l2, 22)},
		"l1mean into l1sr":     {mk(l1, 23), mk(l1mean, 23)},
		"l1sr into l1mean":     {mk(l1mean, 23), mk(l1, 23)},
		"count-median into ℓ1": {mk(l1, 24), cm},
	} {
		if err := pair[0].MergeFrom(pair[1]); !errors.Is(err, sketch.ErrIncompatible) {
			t.Errorf("%s: err = %v, want ErrIncompatible", name, err)
		}
	}
}

// Negative updates (deletions, turnstile model) are fully supported by
// linearity: sketch of x then of -x recovers zero.
func TestTurnstileCancellation(t *testing.T) {
	const n, k = 2000, 8
	x := biasedGaussian(n, 60, 5, 21)
	l1 := New(Config{Scheme: L1, N: n, K: k}, rand.New(rand.NewSource(22)))
	l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(23)))
	for i, v := range x {
		l1.Update(i, v)
		l2.Update(i, v)
	}
	for i, v := range x {
		l1.Update(i, -v)
		l2.Update(i, -v)
	}
	for i := 0; i < n; i += 97 {
		if q := l1.Query(i); math.Abs(q) > 1e-7 {
			t.Errorf("ℓ1 query %d = %f after cancellation, want 0", i, q)
		}
		if q := l2.Query(i); math.Abs(q) > 1e-7 {
			t.Errorf("ℓ2 query %d = %f after cancellation, want 0", i, q)
		}
	}
}

// Streaming real-time queries: mid-stream answers must track the
// prefix vector (the whole point of §4.4).
func TestStreamingMidStreamQueries(t *testing.T) {
	const n, k = 3000, 8
	r := rand.New(rand.NewSource(24))
	l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(25)))
	prefix := make([]float64, n)
	for step := 0; step < 60000; step++ {
		i := r.Intn(n)
		prefix[i]++
		l2.Update(i, 1)
		if step == 20000 || step == 59999 {
			// Bias should be near the prefix average (uniform stream,
			// no outliers).
			want := vecmath.Mean(prefix)
			if got := l2.Bias(); math.Abs(got-want) > 0.3*want+1 {
				t.Errorf("step %d: bias %f, want ≈%f", step, got, want)
			}
			maxErr := 0.0
			for i := 0; i < n; i += 29 {
				if e := math.Abs(l2.Query(i) - prefix[i]); e > maxErr {
					maxErr = e
				}
			}
			// Bucket noise is ~sqrt(n/s)·σ(prefix) ≈ 25 here; allow 3×.
			if maxErr > 75 {
				t.Errorf("step %d: mid-stream max point error %f too large", step, maxErr)
			}
		}
	}
}

func TestWordsAccounting(t *testing.T) {
	l1 := New(Config{Scheme: L1, N: 1000, K: 10, SampleCount: 50}, rand.New(rand.NewSource(26)))
	// d*s + samples = 9*40 + 50.
	if got := l1.Words(); got != 410 {
		t.Errorf("ℓ1 Words = %d, want 410", got)
	}
	l2 := New(Config{Scheme: L2, N: 1000, K: 10}, rand.New(rand.NewSource(27)))
	// d*s + s = 9*40 + 40.
	if got := l2.Words(); got != 400 {
		t.Errorf("ℓ2 Words = %d, want 400", got)
	}
	if l1.Dim() != 1000 || l2.Dim() != 1000 {
		t.Error("Dim mismatch")
	}
}

// ℓ2-S/R with the sampled-median estimator (ablation path) must still
// produce sane recoveries.
func TestL2WithSampledMedianEstimator(t *testing.T) {
	const n, k = 10000, 64
	x := biasedGaussian(n, 90, 10, 28)
	l2 := New(Config{Scheme: L2, N: n, K: k, Estimator: EstimatorSampledMedian, SampleCount: 256},
		rand.New(rand.NewSource(29)))
	feed(l2, x)
	if b := l2.Bias(); math.Abs(b-90) > 5 {
		t.Errorf("bias = %f, want ≈90", b)
	}
	// Bucket noise after de-biasing is ~sqrt(n/s)·σ ≈ 63·... ≈ 20 per
	// row; the row median brings the average below that.
	if err := vecmath.AvgAbsErr(x, sketch.Recover(l2)); err > 25 {
		t.Errorf("avg err %f too large", err)
	}
}

// Bias independence (Figure 1c–1d): the recovery error of the
// bias-aware sketches must not grow with the bias magnitude.
func TestErrorIndependentOfBias(t *testing.T) {
	const n, k = 20000, 32
	errAt := func(bias float64, seed int64) (float64, float64) {
		x := biasedGaussian(n, bias, 15, seed)
		l1 := New(Config{Scheme: L1, N: n, K: k, SampleCount: 4 * k}, rand.New(rand.NewSource(seed+100)))
		l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(seed+200)))
		feed(l1, x)
		feed(l2, x)
		return vecmath.AvgAbsErr(x, sketch.Recover(l1)), vecmath.AvgAbsErr(x, sketch.Recover(l2))
	}
	l1a, l2a := errAt(100, 30)
	l1b, l2b := errAt(500, 30)
	if l1b > 2*l1a+1 {
		t.Errorf("ℓ1 error grew with bias: %f -> %f", l1a, l1b)
	}
	if l2b > 2*l2a+1 {
		t.Errorf("ℓ2 error grew with bias: %f -> %f", l2a, l2b)
	}
}

func BenchmarkL1Update(b *testing.B) {
	l := New(Config{Scheme: L1, N: 1 << 20, K: 256}, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(i&(1<<20-1), 1)
	}
}

func BenchmarkL2UpdateHeap(b *testing.B) {
	l := New(Config{Scheme: L2, N: 1 << 20, K: 256}, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(i&(1<<20-1), 1)
	}
}

func BenchmarkL2QueryHeap(b *testing.B) {
	l := New(Config{Scheme: L2, N: 1 << 18, K: 256}, rand.New(rand.NewSource(1)))
	for i := 0; i < 1<<18; i++ {
		l.Update(i, 100)
	}
	// Warm the ψ caches once so the benchmark measures queries.
	l.Query(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Query(i & (1<<18 - 1))
	}
}
