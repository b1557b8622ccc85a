package sketch

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashing"
)

// refRowWeights is the per-coordinate reference for RowWeights — the
// loop every sketch ran before the weights were shared: one hash (and
// sign) evaluation per coordinate, accumulated in coordinate order.
func refRowWeights(h hashing.Family, t int, signs *hashing.SignFamily, n, rows int) []float64 {
	w := make([]float64, rows)
	for j := 0; j < n; j++ {
		u := uint64(j)
		if signs == nil {
			w[h.Hash(t, u)]++
		} else {
			w[h.Hash(t, u)] += signs.SignFloat(t, u)
		}
	}
	return w
}

var seedCounter atomic.Int64

// freshSeed returns a seed no earlier call in this process returned,
// so a test that must start from a cold cache never finds rows left
// alive by an earlier test or an earlier -count iteration.
func freshSeed() int64 { return 1_000_000 + seedCounter.Add(1) }

// The shared weights equal the per-coordinate reference bit for bit,
// on both hash arms, signed and unsigned, for n below one chunk, at a
// chunk boundary, and not a multiple of the chunk width.
func TestRowWeightsMatchReference(t *testing.T) {
	const rows = 37
	for _, n := range []int{1, 5, weightChunk - 1, weightChunk, 2*weightChunk + 5, 5000} {
		for _, tab := range []bool{false, true} {
			r := rand.New(rand.NewSource(freshSeed()))
			var h hashing.Family
			var s hashing.SignFamily
			if tab {
				h = must(hashing.NewTabFamily(r, 3, rows))
				s = hashing.NewTabSignFamily(r, 3)
			} else {
				h = must(hashing.NewFamily(r, 3, rows))
				s = hashing.NewSignFamily(r, 3)
			}
			for _, signs := range []*hashing.SignFamily{nil, &s} {
				for tr := 0; tr < 3; tr++ {
					got := RowWeights(h, tr, signs, n)
					want := refRowWeights(h, tr, signs, n, rows)
					if len(got) != rows {
						t.Fatalf("n=%d tab=%v signed=%v row %d: len %d, want %d", n, tab, signs != nil, tr, len(got), rows)
					}
					for b := range want {
						if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
							t.Fatalf("n=%d tab=%v signed=%v row %d bucket %d: %v, want %v",
								n, tab, signs != nil, tr, b, got[b], want[b])
						}
					}
				}
			}
		}
	}
}

// sameRows reports whether every row of a and b is one backing array.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if &a[t][0] != &b[t][0] {
			return false
		}
	}
	return true
}

// anyShared reports whether some row of a shares a backing array with
// some row of b.
func anyShared(a, b [][]float64) bool {
	for _, x := range a {
		for _, y := range b {
			if &x[0] == &y[0] {
				return true
			}
		}
	}
	return false
}

// Sketches of one seed, shape and hash arm share every row's backing
// array; a different seed, n, Rows or hash arm, or signed against
// unsigned weights, never shares.
func TestWeightsSharedAndIsolated(t *testing.T) {
	seed := freshSeed()
	base := Config{N: 3000, Rows: 32, Depth: 4}
	cm := func(cfg Config, seed int64) [][]float64 {
		return must(NewCountMedian(cfg, rand.New(rand.NewSource(seed)))).PrepareWeights()
	}
	cs := func(cfg Config, seed int64) [][]float64 {
		return must(NewCountSketch(cfg, rand.New(rand.NewSource(seed)))).PrepareWeights()
	}
	pi, psi := cm(base, seed), cs(base, seed)
	if !sameRows(pi, cm(base, seed)) {
		t.Error("Count-Median rows of one seed do not share π")
	}
	if !sameRows(psi, cs(base, seed)) {
		t.Error("Count-Sketch rows of one seed do not share ψ")
	}
	tab := base
	tab.Hash = HashTabulation
	if !sameRows(cs(tab, seed), cs(tab, seed)) {
		t.Error("tabulation Count-Sketch rows of one seed do not share ψ")
	}

	otherN, otherRows := base, base
	otherN.N++
	otherRows.Rows++
	for name, w := range map[string][][]float64{
		"seed":     cm(base, freshSeed()),
		"n":        cm(otherN, seed),
		"rows":     cm(otherRows, seed),
		"hash arm": cm(tab, seed),
		"sign (ψ)": psi, // a Count-Sketch of one seed draws the same h_t as the Count-Median
	} {
		if anyShared(pi, w) {
			t.Errorf("π shared with a row of another %s", name)
		}
	}
	if anyShared(psi, cs(base, freshSeed())) || anyShared(psi, cs(tab, seed)) {
		t.Error("ψ shared with a sketch of another seed or hash arm")
	}
}

// Concurrent first readers of a cold row all get the one installed
// slice, equal to the reference. Run under -race -count=10: the cache
// is process-wide state touched from every goroutine.
func TestWeightsConcurrentFirstReaders(t *testing.T) {
	for _, hk := range []HashKind{HashPairwise, HashTabulation} {
		cfg := Config{N: 4000, Rows: 64, Depth: 3, Hash: hk}
		seed := freshSeed()
		const readers = 8
		got := make([][][]float64, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(seed))))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = cs.PrepareWeights()
			}()
		}
		close(start)
		wg.Wait()
		ref := must(NewCountSketch(cfg, rand.New(rand.NewSource(seed))))
		for g := range got {
			if !sameRows(got[0], got[g]) {
				t.Fatalf("%v: reader %d got its own ψ, not the shared one", hk, g)
			}
		}
		for tr, row := range got[0] {
			want := refRowWeights(ref.tb.hash, tr, &ref.signs, cfg.N, cfg.Rows)
			for b := range want {
				if row[b] != want[b] {
					t.Fatalf("%v row %d bucket %d: %v, want %v", hk, tr, b, row[b], want[b])
				}
			}
		}
	}
}

// warmKeys builds a sketch, warms its weights and returns their cache
// keys; the sketch itself is unreachable once it returns.
//
//go:noinline
func warmKeys(cfg Config, seed int64) []rowKey {
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(seed))))
	cs.PrepareWeights()
	keys := make([]rowKey, cfg.Depth)
	for tr := range keys {
		keys[tr] = newRowKey(cs.tb.hash, tr, &cs.signs, cfg.N)
	}
	return keys
}

// A cache entry is released once the last sketch using it is
// collected: the test waits on each row's cleanup, then finds the
// entry gone.
func TestWeightsReleasedAfterCollection(t *testing.T) {
	cfg := Config{N: 2000, Rows: 16, Depth: 3, Hash: HashTabulation}
	// One send per row registered while the hook is installed: only
	// this test's rows, so the cleanups never block.
	released := make(chan rowKey, cfg.Depth)
	orig := releaseRow
	releaseRow = func(r rowRef) {
		orig(r)
		select {
		case released <- r.k:
		default:
		}
	}
	defer func() { releaseRow = orig }()

	keys := warmKeys(cfg, freshSeed())
	weightCache.mu.Lock()
	for _, k := range keys {
		if _, ok := weightCache.m[k]; !ok {
			t.Fatal("warmed row missing from the cache")
		}
	}
	weightCache.mu.Unlock()

	pending := make(map[rowKey]bool, len(keys))
	for _, k := range keys {
		pending[k] = true
	}
	runtime.GC()
	deadline := time.After(30 * time.Second)
	for len(pending) > 0 {
		select {
		case k := <-released:
			delete(pending, k)
		case <-deadline:
			t.Fatalf("%d of %d rows never released", len(pending), len(keys))
		}
	}
	weightCache.mu.Lock()
	defer weightCache.mu.Unlock()
	for _, k := range keys {
		if _, ok := weightCache.m[k]; ok {
			t.Fatal("released row still cached")
		}
	}
}

// BenchmarkColumnWeights times a Count-Sketch's ψ fetch at the §5.1
// shape. cold draws a fresh seed per iteration, so every fetch misses
// and pays the chunked O(n·d) build; shared fetches the rows of a seed
// whose weights a live sketch already holds — the path of every shard,
// replica, pane and restore after the first.
func BenchmarkColumnWeights(b *testing.B) {
	cfg := Config{N: 1 << 20, Rows: 4096, Depth: 9}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(freshSeed()))))
			cs.PrepareWeights()
		}
	})
	b.Run("shared", func(b *testing.B) {
		seed := freshSeed()
		live := must(NewCountSketch(cfg, rand.New(rand.NewSource(seed))))
		live.PrepareWeights()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(seed))))
			cs.PrepareWeights()
		}
		b.StopTimer()
		runtime.KeepAlive(live)
	})
}
