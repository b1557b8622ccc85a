package rangequery_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rangequery"
	"repro/internal/stream"
)

// Build a hybrid dyadic stack — exact counters for the small coarse
// levels, bias-aware sketches for the large fine levels — and answer
// range sums and quantiles over a counter vector.
func Example() {
	const n = 1 << 16

	factory := func(_, size int, r *rand.Rand) rangequery.PointSketch {
		if size <= 2048 {
			return stream.NewExact(size)
		}
		return core.New(core.Config{Scheme: core.L2, N: size, K: 512}, r)
	}
	rq := rangequery.New(n, factory, rand.New(rand.NewSource(1)))

	// Uniform traffic: 10 units everywhere.
	for i := 0; i < n; i++ {
		rq.Update(i, 10)
	}

	fmt.Printf("levels: %d\n", rq.Levels())
	fmt.Printf("sum over [1000, 2000): %.0f (exact 10000)\n", rq.RangeSum(1000, 2000))
	fmt.Printf("median of mass at index: %d (exact %d)\n", rq.Quantile(0.5), n/2)
	// Output:
	// levels: 17
	// sum over [1000, 2000): 10000 (exact 10000)
	// median of mass at index: 32767 (exact 32768)
}
