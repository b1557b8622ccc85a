package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func TestTailEstimateGaussian(t *testing.T) {
	const n, k = 50000, 64
	x := biasedGaussian(n, 100, 15, 1)
	l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(2)))
	feed(l2, x)
	est, ok := l2.TailEstimate()
	if !ok {
		t.Fatal("median-bucket estimator should support TailEstimate")
	}
	_, truth := vecmath.MinBetaErrK(x, k, 2)
	if est < 0.7*truth || est > 1.3*truth {
		t.Errorf("TailEstimate = %f, true min_beta Err_2^k = %f (want within 30%%)", est, truth)
	}
}

// The estimate must be independent of the bias magnitude (it measures
// the de-biased tail).
func TestTailEstimateBiasIndependent(t *testing.T) {
	const n, k = 30000, 32
	estAt := func(b float64) float64 {
		x := biasedGaussian(n, b, 15, 3)
		l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(4)))
		feed(l2, x)
		e, ok := l2.TailEstimate()
		if !ok {
			t.Fatal("TailEstimate unsupported")
		}
		return e
	}
	a, b := estAt(100), estAt(5000)
	if math.Abs(a-b) > 0.2*a {
		t.Errorf("tail estimate moved with bias: %f vs %f", a, b)
	}
}

// Outliers must not inflate the estimate much — their buckets sort to
// the excluded edges.
func TestTailEstimateRobustToOutliers(t *testing.T) {
	const n, k = 30000, 64
	clean := biasedGaussian(n, 100, 15, 5)
	dirty := append([]float64(nil), clean...)
	r := rand.New(rand.NewSource(6))
	for j := 0; j < k/2; j++ {
		dirty[r.Intn(n)] += 1e7
	}
	estOf := func(x []float64) float64 {
		l2 := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(7)))
		feed(l2, x)
		e, ok := l2.TailEstimate()
		if !ok {
			t.Fatal("unsupported")
		}
		return e
	}
	ec, ed := estOf(clean), estOf(dirty)
	if ed > 2*ec {
		t.Errorf("outliers inflated tail estimate: clean %f dirty %f", ec, ed)
	}
}

// The estimate should be a usable confidence scale: the realized max
// point error stays within a small multiple of TailEstimate/√k.
func TestTailEstimateCalibratesError(t *testing.T) {
	const n, k = 30000, 64
	x := biasedGaussian(n, 200, 10, 8)
	l2 := New(Config{Scheme: L2, N: n, K: k, Depth: 11}, rand.New(rand.NewSource(9)))
	feed(l2, x)
	est, ok := l2.TailEstimate()
	if !ok {
		t.Fatal("unsupported")
	}
	scale := est / math.Sqrt(float64(k))
	var worst float64
	for i := 0; i < n; i += 17 {
		if e := math.Abs(l2.Query(i) - x[i]); e > worst {
			worst = e
		}
	}
	if worst > 4*scale {
		t.Errorf("realized max error %f exceeds 4×(TailEstimate/√k) = %f", worst, 4*scale)
	}
	if worst < scale/50 {
		t.Errorf("scale %f wildly pessimistic vs realized %f", scale, worst)
	}
}

func TestTailEstimateUnsupportedEstimators(t *testing.T) {
	const n, k = 1000, 8
	for _, kind := range []EstimatorKind{EstimatorMean, EstimatorSampledMedian} {
		l2 := New(Config{Scheme: L2, N: n, K: k, Estimator: kind, SampleCount: 32},
			rand.New(rand.NewSource(10)))
		if _, ok := l2.TailEstimate(); ok {
			t.Errorf("estimator %v should not support TailEstimate", kind)
		}
	}
}

// The tail estimate built on the Bias-Heap's β̂ must match the one
// built on the sort-at-query reference (sortBias): the bucket state is
// identical, only the bias maintenance differs.
func TestTailEstimateHeapMatchesSort(t *testing.T) {
	const n, k = 5000, 16
	x := biasedGaussian(n, 60, 8, 11)
	a := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(12)))
	feed(a, x)
	ea, ok := a.TailEstimate()
	if !ok {
		t.Fatal("unsupported")
	}
	est := a.est.(*medianBucketEstimator)
	sigma2, ok := est.tailSigma2(sortBias(est))
	if !ok {
		t.Fatal("unsupported")
	}
	if eb := math.Sqrt(n * sigma2); math.Abs(ea-eb) > 1e-9 {
		t.Errorf("tail estimates differ: sort %f heap %f", eb, ea)
	}
}
