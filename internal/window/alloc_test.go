// AllocsPerRun gates are meaningless under the race detector: race-
// instrumented sync.Pool randomly drops Puts, so pooled paths
// legitimately allocate. The lexical hotpathalloc analyzer still
// covers these paths in race builds.
//go:build !race

package window

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sketch"
)

// Runtime gate of the hot-path zero-allocation contract for the
// lock-free window serving path: once a view is published and the
// replica's query caches are warm, View.Query and View.QueryBatch run
// with zero allocations per call. The panes are interface-typed
// (S = sketch.Sketch), the instantiation the facade's Windowed uses,
// so the replica's batched path is reached through an interface call.
func TestViewQueryAllocFree(t *testing.T) {
	const n = 10000
	mk := func() sketch.Sketch {
		return core.NewL2SR(core.L2Config{N: n, K: 64}, rand.New(rand.NewSource(9)))
	}
	merge := func(dst, src sketch.Sketch) error { return dst.(*core.L2SR).MergeFrom(src.(*core.L2SR)) }
	w, err := New(Config{Panes: 2, Shards: 2}, mk, merge)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(10))
	for u := 0; u < 5000; u++ {
		if err := w.Update(u, r.Intn(n), float64(r.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 300)
	out := make([]float64, 300)
	for j := range idx {
		idx[j] = r.Intn(n)
	}
	v.QueryBatch(idx, out) // warm-up: primes the scratch pools
	_ = v.Query(idx[0])

	if a := testing.AllocsPerRun(50, func() { _ = v.Query(idx[0]) }); a != 0 {
		t.Errorf("View.Query allocates %.1f per call in steady state", a)
	}
	if a := testing.AllocsPerRun(50, func() { v.QueryBatch(idx, out) }); a != 0 {
		t.Errorf("View.QueryBatch allocates %.1f per call in steady state", a)
	}
}
