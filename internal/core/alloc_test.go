// AllocsPerRun gates are meaningless under the race detector: race-
// instrumented sync.Pool randomly drops Puts, so pooled paths
// legitimately allocate. The lexical hotpathalloc analyzer still
// covers these paths in race builds.
//go:build !race

package core

import (
	"math/rand"
	"testing"
)

// Runtime gates of the //sketch:hotpath contract for the bias-aware
// recoveries: with query caches warm (π/ψ, the estimator cache) and
// the shared scratch pool primed, Query, QueryBatch, Update and
// UpdateBatch run with zero allocations per call.

const (
	allocDim   = 1 << 12
	allocBatch = 600
)

func allocCoreBatch(r *rand.Rand) (idx []int, deltas, out []float64) {
	idx = make([]int, allocBatch)
	deltas = make([]float64, allocBatch)
	out = make([]float64, allocBatch)
	for j := range idx {
		idx[j] = r.Intn(allocDim)
		deltas[j] = float64(1 + r.Intn(5))
	}
	return idx, deltas, out
}

func TestL1SRQueryBatchAllocFree(t *testing.T) {
	for _, est := range []EstimatorKind{EstimatorSampledMedian, EstimatorMean} {
		r := rand.New(rand.NewSource(11))
		l := New(Config{Scheme: L1, N: allocDim, K: 16, Estimator: est}, r)
		idx, deltas, out := allocCoreBatch(r)
		l.UpdateBatch(idx, deltas)
		l.PrepareRead()
		l.QueryBatch(idx, out) // warm-up: primes the scratch pool
		if n := testing.AllocsPerRun(50, func() { l.QueryBatch(idx, out) }); n != 0 {
			t.Errorf("estimator %v: QueryBatch allocates %.1f per call in steady state", est, n)
		}
		if n := testing.AllocsPerRun(50, func() { _ = l.Query(idx[0]) }); n != 0 {
			t.Errorf("estimator %v: Query allocates %.1f per call in steady state", est, n)
		}
	}
}

func TestL2SRQueryBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := New(Config{Scheme: L2, N: allocDim, K: 16}, r)
	idx, deltas, out := allocCoreBatch(r)
	l.UpdateBatch(idx, deltas)
	l.PrepareRead()
	l.QueryBatch(idx, out)
	if n := testing.AllocsPerRun(50, func() { l.QueryBatch(idx, out) }); n != 0 {
		t.Errorf("QueryBatch allocates %.1f per call in steady state", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = l.Query(idx[0]) }); n != 0 {
		t.Errorf("Query allocates %.1f per call in steady state", n)
	}
}

// The ℓ2 update path is fully in-place: the bias row and the Bias-Heap
// re-seat buckets without allocating.
func TestL2SRUpdateBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := New(Config{Scheme: L2, N: allocDim, K: 16}, r)
	idx, deltas, _ := allocCoreBatch(r)
	l.UpdateBatch(idx, deltas)
	if n := testing.AllocsPerRun(50, func() { l.UpdateBatch(idx, deltas) }); n != 0 {
		t.Errorf("UpdateBatch allocates %.1f per call in steady state", n)
	}
	if n := testing.AllocsPerRun(50, func() { l.Update(idx[0], deltas[0]) }); n != 0 {
		t.Errorf("Update allocates %.1f per call in steady state", n)
	}
}

// The ℓ1 sampled-median estimator stores sampled values in an
// order-statistic tree, which legitimately allocates a node when a
// sampled coordinate moves to a value not already in the tree — that
// is data-structure maintenance, not per-call scratch. The CM-row half
// of the update path must still be allocation-free, which this gate
// checks with a batch that avoids the sampled coordinates (and, for
// full coverage of the estimator-free path, the mean estimator).
func TestL1SRUpdateBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := New(Config{Scheme: L1, N: allocDim, K: 16}, r)
	sampled := l.est.(*sampleMedianEstimator).bySource
	idx := make([]int, 0, allocBatch)
	deltas := make([]float64, 0, allocBatch)
	for i := 0; len(idx) < allocBatch; i++ {
		c := i % allocDim
		if len(sampled[c]) > 0 {
			continue
		}
		idx = append(idx, c)
		deltas = append(deltas, float64(1+i%5))
	}
	l.UpdateBatch(idx, deltas)
	if n := testing.AllocsPerRun(50, func() { l.UpdateBatch(idx, deltas) }); n != 0 {
		t.Errorf("UpdateBatch (unsampled coords) allocates %.1f per call in steady state", n)
	}
	if n := testing.AllocsPerRun(50, func() { l.Update(idx[0], deltas[0]) }); n != 0 {
		t.Errorf("Update (unsampled coord) allocates %.1f per call in steady state", n)
	}

	rm := rand.New(rand.NewSource(11))
	lm := New(Config{Scheme: L1, N: allocDim, K: 16, Estimator: EstimatorMean}, rm)
	midx, mdeltas, _ := allocCoreBatch(rm)
	lm.UpdateBatch(midx, mdeltas)
	if n := testing.AllocsPerRun(50, func() { lm.UpdateBatch(midx, mdeltas) }); n != 0 {
		t.Errorf("UpdateBatch (mean estimator) allocates %.1f per call in steady state", n)
	}
	if n := testing.AllocsPerRun(50, func() { lm.Update(midx[0], mdeltas[0]) }); n != 0 {
		t.Errorf("Update (mean estimator) allocates %.1f per call in steady state", n)
	}
}
