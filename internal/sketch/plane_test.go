package sketch

// Unit tests for the counter-plane backends at the Plane seam: the
// facade-level property tests prove the sketches agree across
// backends; these pin the plane contracts themselves — insert-only
// validation, decode caching and length checks — where the error
// paths are reachable directly.

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestBackendKindString(t *testing.T) {
	cases := map[BackendKind]string{
		BackendDense:      "dense",
		BackendCompressed: "compressed",
		BackendKind(42):   "backend(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestDensePlaneContract(t *testing.T) {
	p := newDensePlane(3, 4)
	if p.Kind() != BackendDense {
		t.Fatalf("Kind = %v", p.Kind())
	}
	if p.WritableRows() == nil {
		t.Fatal("dense plane must expose writable rows")
	}
	if err := p.ValidateAdd(-2.5); err != nil {
		t.Fatalf("dense accepts any delta: %v", err)
	}
	if err := p.Add(1, 2, -2.5); err != nil {
		t.Fatal(err)
	}
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	if v[1][2] != -2.5 {
		t.Fatalf("cell = %v", v[1][2])
	}
	if p.Bits() != 64*3*4 {
		t.Errorf("Bits = %d", p.Bits())
	}
	blob, err := p.MarshalCells()
	if err != nil {
		t.Fatal(err)
	}
	q := newDensePlane(3, 4)
	if err := q.UnmarshalCells(blob); err != nil {
		t.Fatal(err)
	}
	qv, _ := q.View()
	if qv[1][2] != -2.5 {
		t.Fatalf("restored cell = %v", qv[1][2])
	}
	if err := q.UnmarshalCells(blob[:8]); err == nil {
		t.Error("short payload should be rejected")
	}
}

func TestCBPlaneContract(t *testing.T) {
	const depth, rows = 3, 16
	p := newCBPlane(depth, rows, rand.New(rand.NewSource(1)))
	if p.Kind() != BackendCompressed {
		t.Fatalf("Kind = %v", p.Kind())
	}
	if p.WritableRows() != nil {
		t.Fatal("compressed plane must not expose writable rows")
	}
	for _, bad := range []float64{-1, 0.5, math.NaN()} {
		if err := p.ValidateAdd(bad); !errors.Is(err, ErrInsertOnly) {
			t.Errorf("ValidateAdd(%v) = %v, want ErrInsertOnly", bad, err)
		}
		if err := p.Add(0, 0, bad); !errors.Is(err, ErrInsertOnly) {
			t.Errorf("Add(%v) = %v, want ErrInsertOnly", bad, err)
		}
	}

	// Mirror a dense plane cell by cell; views must agree exactly.
	d := newDensePlane(depth, rows)
	r := rand.New(rand.NewSource(2))
	for u := 0; u < 200; u++ {
		ti, b, v := r.Intn(depth), r.Intn(rows), float64(1+r.Intn(9))
		if err := p.Add(ti, b, v); err != nil {
			t.Fatal(err)
		}
		if err := d.Add(ti, b, v); err != nil {
			t.Fatal(err)
		}
	}
	pv, err := p.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	dv, _ := d.View()
	for ti := range dv {
		for b := range dv[ti] {
			if pv[ti][b] != dv[ti][b] {
				t.Fatalf("cell (%d,%d): compressed %v, dense %v", ti, b, pv[ti][b], dv[ti][b])
			}
		}
	}
	// The decode is cached until the next write.
	pv2, _ := p.View()
	if &pv2[0][0] != &pv[0][0] {
		t.Error("quiescent View should reuse the cached decode")
	}
	if err := p.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if p.fresh {
		t.Error("Add must invalidate the cached decode")
	}

	if p.Bits() >= d.Bits() {
		t.Errorf("compressed plane uses %d bits, dense %d — no compression", p.Bits(), d.Bits())
	}

	// Wire interop: compressed marshal restores into dense and back.
	blob, err := p.MarshalCells()
	if err != nil {
		t.Fatal(err)
	}
	back := newCBPlane(depth, rows, rand.New(rand.NewSource(1)))
	if err := back.UnmarshalCells(blob); err != nil {
		t.Fatal(err)
	}
	bv, err := back.View()
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := p.View()
	for ti := range cur {
		for b := range cur[ti] {
			if bv[ti][b] != cur[ti][b] {
				t.Fatalf("restored cell (%d,%d) differs", ti, b)
			}
		}
	}
	if err := back.UnmarshalCells(blob[:16]); err == nil {
		t.Error("short payload should be rejected")
	}
	neg := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(neg, math.Float64bits(-3))
	if err := back.UnmarshalCells(neg); !errors.Is(err, ErrInsertOnly) {
		t.Errorf("negative cell payload: %v, want ErrInsertOnly", err)
	}
}

func TestCBPlaneMergeFrom(t *testing.T) {
	const depth, rows = 2, 8
	mk := func(seed int64) *cbPlane { return newCBPlane(depth, rows, rand.New(rand.NewSource(seed))) }
	a, b := mk(3), mk(3)
	if err := a.Add(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	// Same shape: braid-to-braid, no decode of either side.
	if err := a.MergeFrom(b); err != nil {
		t.Fatalf("braid merge: %v", err)
	}
	av, err := a.View()
	if err != nil {
		t.Fatal(err)
	}
	if av[0][1] != 5 || av[1][2] != 7 {
		t.Fatalf("merged view: %v", av)
	}

	// Cross-backend: decode the dense source and re-insert.
	d := newDensePlane(depth, rows)
	if err := d.Add(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeFrom(d); err != nil {
		t.Fatalf("dense merge: %v", err)
	}
	av, _ = a.View()
	if av[0][0] != 3 {
		t.Fatalf("cross-backend merge lost mass: %v", av[0][0])
	}
	// A signed dense source violates the insert-only contract.
	if err := d.Add(0, 3, -1); err != nil {
		t.Fatal(err)
	}
	if err := mk(4).MergeFrom(d); !errors.Is(err, ErrInsertOnly) {
		t.Errorf("signed source: %v, want ErrInsertOnly", err)
	}
}

// Backend() accessors and cross-backend construction on every table
// sketch: compressed where the write pattern allows, rejected where it
// does not.
func TestTableSketchBackends(t *testing.T) {
	cfg := Config{N: 300, Rows: 16, Depth: 3}

	t.Run("compressed", func(t *testing.T) {
		cm := must(NewCountMinBackend(cfg, BackendCompressed, rand.New(rand.NewSource(1))))
		if cm.Backend() != BackendCompressed {
			t.Fatalf("Backend = %v", cm.Backend())
		}
		cmd := must(NewCountMedianBackend(cfg, BackendCompressed, rand.New(rand.NewSource(1))))
		if cmd.Backend() != BackendCompressed {
			t.Fatalf("Backend = %v", cmd.Backend())
		}
		dr := must(NewDengRafieiBackend(cfg, BackendCompressed, rand.New(rand.NewSource(1))))
		if dr.Backend() != BackendCompressed {
			t.Fatalf("Backend = %v", dr.Backend())
		}
		if _, err := NewCountSketchBackend(cfg, BackendCompressed, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBackendUnsupported) {
			t.Errorf("countsketch compressed: %v", err)
		}
		if _, err := NewCMCUBackend(cfg, BackendCompressed, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBackendUnsupported) {
			t.Errorf("cmcu compressed: %v", err)
		}
		if _, err := NewCMLCUBackend(cfg, DefaultCMLBase, BackendCompressed, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBackendUnsupported) {
			t.Errorf("cmlcu compressed: %v", err)
		}
	})

	t.Run("dense-default", func(t *testing.T) {
		for name, sk := range map[string]interface{ Backend() BackendKind }{
			"countmin":    must(NewCountMin(cfg, rand.New(rand.NewSource(4)))),
			"countmedian": must(NewCountMedian(cfg, rand.New(rand.NewSource(4)))),
			"countsketch": must(NewCountSketch(cfg, rand.New(rand.NewSource(4)))),
			"cmcu":        must(NewCMCU(cfg, rand.New(rand.NewSource(4)))),
			"cmlcu":       must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(4)))),
			"dengrafiei":  must(NewDengRafiei(cfg, rand.New(rand.NewSource(4)))),
		} {
			if sk.Backend() != BackendDense {
				t.Errorf("%s: default backend = %v", name, sk.Backend())
			}
		}
	})
}

// Restores must land on every backend: cmcu and cmlcu are not linear
// (no merge) but do checkpoint; their Unmarshal paths were previously
// only reachable through the codec.
func TestNonLinearUnmarshal(t *testing.T) {
	cfg := Config{N: 200, Rows: 16, Depth: 3}
	cu := must(NewCMCU(cfg, rand.New(rand.NewSource(5))))
	lu := must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(5))))
	for i := 0; i < 800; i++ {
		cu.Update(i%cfg.N, float64(1+i%3))
		lu.Update(i%cfg.N, float64(1+i%3))
	}
	cu2 := must(NewCMCU(cfg, rand.New(rand.NewSource(5))))
	if err := cu2.Unmarshal(must(cu.Marshal())); err != nil {
		t.Fatal(err)
	}
	lu2 := must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(5))))
	if err := lu2.Unmarshal(must(lu.Marshal())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i += 7 {
		if cu.Query(i) != cu2.Query(i) {
			t.Fatalf("cmcu restore: Query(%d) disagrees", i)
		}
		if lu.Query(i) != lu2.Query(i) {
			t.Fatalf("cmlcu restore: Query(%d) disagrees", i)
		}
	}

	dr := must(NewDengRafiei(cfg, rand.New(rand.NewSource(6))))
	for i := 0; i < 500; i++ {
		dr.Update(i%cfg.N, 2)
	}
	dr2 := must(NewDengRafiei(cfg, rand.New(rand.NewSource(6))))
	if err := dr2.Unmarshal(must(dr.Marshal())); err != nil {
		t.Fatal(err)
	}
	if dr.Query(3) != dr2.Query(3) {
		t.Error("dengrafiei restore: query disagrees")
	}
	if err := dr2.Unmarshal([]byte{1, 2}); err == nil {
		t.Error("truncated dengrafiei payload should be rejected")
	}
}

// The CounterBraids adapter: exactness below threshold, the typed
// constraint surface, and merge/marshal round trips — exercised
// directly so the adapter's own validation (not the facade's) is
// what's covered.
func TestCounterBraidsAdapter(t *testing.T) {
	if _, err := NewCounterBraids(0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=0: %v, want ErrConfig", err)
	}
	const n = 500
	cb := must(NewCounterBraids(n, rand.New(rand.NewSource(1))))
	if cb.Backend() != BackendCompressed {
		t.Fatalf("Backend = %v", cb.Backend())
	}
	if cb.Dim() != n {
		t.Fatalf("Dim = %d", cb.Dim())
	}
	if cb.Words() <= 0 || cb.Words() >= n {
		t.Fatalf("Words = %d — a braid over %d flows should cost less than exact counters", cb.Words(), n)
	}

	want := make([]float64, n)
	r := rand.New(rand.NewSource(2))
	idx := make([]int, 64)
	deltas := make([]float64, 64)
	for round := 0; round < 10; round++ {
		for j := range idx {
			idx[j] = r.Intn(n)
			deltas[j] = float64(1 + r.Intn(4))
			want[idx[j]] += deltas[j]
		}
		cb.UpdateBatch(idx, deltas)
	}
	cb.Update(7, 3)
	want[7] += 3

	out := make([]float64, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	cb.QueryBatch(all, out)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, out[i], want[i])
		}
	}
	if cb.Query(7) != want[7] {
		t.Fatalf("Query(7) = %v", cb.Query(7))
	}

	// Typed panics: out-of-range index, non-integer delta, batch shape.
	expectPanic := func(name string, wantErr error, fn func()) {
		t.Helper()
		defer func() {
			rec := recover()
			if rec == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if wantErr != nil {
				err, ok := rec.(error)
				if !ok || !errors.Is(err, wantErr) {
					t.Errorf("%s: recovered %v, want %v", name, rec, wantErr)
				}
			}
		}()
		fn()
	}
	expectPanic("negative delta", ErrInsertOnly, func() { cb.Update(0, -1) })
	expectPanic("fractional delta", ErrInsertOnly, func() { cb.Update(0, 0.5) })
	expectPanic("index out of range", nil, func() { cb.Update(n, 1) })
	expectPanic("query out of range", nil, func() { cb.Query(-1) })
	expectPanic("batch length mismatch", nil, func() { cb.UpdateBatch([]int{1}, []float64{1, 2}) })
	expectPanic("batch bad index", nil, func() { cb.UpdateBatch([]int{n}, []float64{1}) })
	expectPanic("batch bad delta", ErrInsertOnly, func() { cb.UpdateBatch([]int{1}, []float64{-1}) })
	expectPanic("query batch length mismatch", nil, func() { cb.QueryBatch([]int{1}, make([]float64, 2)) })
	expectPanic("query batch bad index", nil, func() { cb.QueryBatch([]int{-1}, make([]float64, 1)) })
	// A failed batch must not have moved any counter.
	if cb.Query(0) != want[0] || cb.Query(1) != want[1] {
		t.Fatal("rejected batch leaked a partial update")
	}

	// Merge and wire round trip.
	other := must(NewCounterBraids(n, rand.New(rand.NewSource(1))))
	other.Update(11, 4)
	if err := cb.MergeFrom(other); err != nil {
		t.Fatalf("MergeFrom: %v", err)
	}
	want[11] += 4
	if cb.Query(11) != want[11] {
		t.Fatalf("merged Query(11) = %v, want %v", cb.Query(11), want[11])
	}
	mismatch := must(NewCounterBraids(n, rand.New(rand.NewSource(99))))
	if err := cb.MergeFrom(mismatch); !errors.Is(err, ErrIncompatible) {
		t.Errorf("seed-mismatched merge: %v, want ErrIncompatible", err)
	}
	if err := cb.MergeFrom(must(NewCountMin(Config{N: n, Rows: 8, Depth: 2}, rand.New(rand.NewSource(1))))); !errors.Is(err, ErrIncompatible) {
		t.Errorf("cross-type merge: %v, want ErrIncompatible", err)
	}

	blob := must(cb.Marshal())
	back := must(NewCounterBraids(n, rand.New(rand.NewSource(1))))
	if err := back.Unmarshal(blob); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for i := 0; i < n; i += 11 {
		if back.Query(i) != want[i] {
			t.Fatalf("restored Query(%d) = %v, want %v", i, back.Query(i), want[i])
		}
	}
	if err := back.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("truncated braid state should be rejected")
	}
}

// Table-level write rejection: the hot paths panic with the typed
// plane error when an update reaches a constraint-violating plane
// through the panic-only Update/UpdateBatch surface.
func TestTableWriteRejections(t *testing.T) {
	cfg := Config{N: 100, Rows: 8, Depth: 2}

	// Insert-only: a batch with one bad delta moves nothing.
	comp := must(NewCountMinBackend(cfg, BackendCompressed, rand.New(rand.NewSource(1))))
	comp.Update(5, 2)
	func() {
		defer func() {
			rec := recover()
			err, ok := rec.(error)
			if !ok || !errors.Is(err, ErrInsertOnly) {
				t.Errorf("compressed batch: recovered %v, want ErrInsertOnly", rec)
			}
		}()
		comp.UpdateBatch([]int{1, 2}, []float64{1, -1})
		t.Error("compressed batch with negative delta accepted")
	}()
	if comp.Query(1) != 0 || comp.Query(5) != 2 {
		t.Error("rejected batch leaked a partial update")
	}
}
