package repro_test

// Public-API tests: everything here exercises the facade exactly as an
// external consumer would — repro.New, Merge, Marshal/Unmarshal,
// Sharded — with no repro/internal imports.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro"
)

// paperAlgos are the eight algorithms of the paper's evaluation; all
// must construct via New and round-trip through Marshal/Unmarshal.
var paperAlgos = []string{
	"l1sr", "l2sr", "countmin", "countmedian", "countsketch",
	"cmcu", "cmlcu", "dengrafiei",
}

func mustNew(t *testing.T, algo string, opts ...repro.Option) repro.Sketch {
	t.Helper()
	s, err := repro.New(algo, opts...)
	if err != nil {
		t.Fatalf("New(%s): %v", algo, err)
	}
	return s
}

func fill(s repro.Sketch, updates int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for u := 0; u < updates; u++ {
		s.Update(r.Intn(s.Dim()), float64(1+r.Intn(5)))
	}
}

func TestRegistryRoundTripEveryAlgorithm(t *testing.T) {
	for _, algo := range append(paperAlgos, "l1mean", "l2mean") {
		opts := []repro.Option{
			repro.WithDim(20000), repro.WithWords(256), repro.WithDepth(7), repro.WithSeed(99),
		}
		orig := mustNew(t, algo, opts...)
		fill(orig, 30000, 1)

		data, err := repro.Marshal(orig)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", algo, err)
		}
		loaded, err := repro.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", algo, err)
		}
		if loaded.Algo() != orig.Algo() || loaded.Dim() != orig.Dim() || loaded.Words() != orig.Words() {
			t.Fatalf("%s: identity lost: %s/%d/%d vs %s/%d/%d", algo,
				loaded.Algo(), loaded.Dim(), loaded.Words(),
				orig.Algo(), orig.Dim(), orig.Words())
		}
		for i := 0; i < orig.Dim(); i += 97 {
			if a, b := orig.Query(i), loaded.Query(i); math.Abs(a-b) > 1e-9 {
				t.Fatalf("%s: query %d: %f != %f", algo, i, a, b)
			}
		}
	}
}

// Legend aliases resolve to the same canonical algorithms.
func TestNewAcceptsLegendAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"l2-S/R": "l2sr", "CM": "countmedian", "CS": "countsketch",
		"CM-CU": "cmcu", "CML-CU": "cmlcu", "Count-Min": "countmin",
		"Deng-Rafiei": "dengrafiei",
	} {
		s := mustNew(t, alias, repro.WithDim(100), repro.WithWords(16), repro.WithDepth(3))
		if s.Algo() != canonical {
			t.Errorf("New(%q).Algo() = %q, want %q", alias, s.Algo(), canonical)
		}
	}
}

// Merging the sketches of two disjoint halves must equal sketching the
// whole stream sequentially — linearity at the public-API level.
func TestMergeEquivalence(t *testing.T) {
	for _, algo := range []string{"l1sr", "l2sr", "countmin", "countmedian", "countsketch", "dengrafiei", "exact"} {
		opts := []repro.Option{
			repro.WithDim(5000), repro.WithWords(128), repro.WithDepth(5), repro.WithSeed(7),
		}
		seq := mustNew(t, algo, opts...)
		left := mustNew(t, algo, opts...)
		right := mustNew(t, algo, opts...)

		r := rand.New(rand.NewSource(2))
		for u := 0; u < 20000; u++ {
			i, d := r.Intn(5000), float64(1+r.Intn(3))
			seq.Update(i, d)
			if u < 10000 {
				left.Update(i, d)
			} else {
				right.Update(i, d)
			}
		}
		if err := repro.Merge(left, right); err != nil {
			t.Fatalf("%s: Merge: %v", algo, err)
		}
		for i := 0; i < 5000; i += 13 {
			if a, b := seq.Query(i), left.Query(i); math.Abs(a-b) > 1e-6 {
				t.Fatalf("%s: merged query %d = %f, sequential = %f", algo, i, b, a)
			}
		}
	}
}

// Two sharded halves merged must equal one sequential sketch.
func TestShardedMatchesSequential(t *testing.T) {
	opts := []repro.Option{
		repro.WithDim(5000), repro.WithWords(128), repro.WithDepth(5), repro.WithSeed(7),
	}
	sh, err := repro.NewSharded(4, "l2sr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	seq := mustNew(t, "l2sr", opts...)

	r := rand.New(rand.NewSource(3))
	for u := 0; u < 20000; u++ {
		i, d := r.Intn(5000), float64(1+r.Intn(3))
		seq.Update(i, d)
		sh.Update(u, i, d) // round-robin slots
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i += 13 {
		if a, b := seq.Query(i), snap.Query(i); math.Abs(a-b) > 1e-6 {
			t.Fatalf("query %d: sharded %f != sequential %f", i, b, a)
		}
	}
	// An owned clone of the snapshot is a full facade sketch: it must
	// merge and marshal; Merged builds the same thing from live shards.
	owned, err := snap.Owned()
	if err != nil {
		t.Fatalf("snapshot Owned: %v", err)
	}
	if err := repro.Merge(owned, seq); err != nil {
		t.Fatalf("owned snapshot Merge: %v", err)
	}
	if _, err := repro.Marshal(owned); err != nil {
		t.Fatalf("owned snapshot Marshal: %v", err)
	}
	merged, err := sh.Merged()
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	for i := 0; i < 5000; i += 13 {
		if a, b := snap.Query(i), merged.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: snapshot %f != merged %f", i, a, b)
		}
	}
}

// Conservative-update sketches are not linear; Merge must say so with
// the typed error rather than silently corrupting state.
func TestMergeNotLinear(t *testing.T) {
	for _, algo := range []string{"cmcu", "cmlcu"} {
		opts := []repro.Option{repro.WithDim(100), repro.WithWords(16), repro.WithDepth(3)}
		a := mustNew(t, algo, opts...)
		b := mustNew(t, algo, opts...)
		err := repro.Merge(a, b)
		if !errors.Is(err, repro.ErrNotLinear) {
			t.Errorf("%s: Merge error = %v, want ErrNotLinear", algo, err)
		}
		if _, ok := a.(repro.Linear); ok {
			t.Errorf("%s: should not satisfy repro.Linear", algo)
		}
		if _, err := repro.NewSharded(4, algo, opts...); !errors.Is(err, repro.ErrNotLinear) {
			t.Errorf("%s: NewSharded error = %v, want ErrNotLinear", algo, err)
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	base := []repro.Option{repro.WithDim(100), repro.WithWords(16), repro.WithDepth(3)}
	other := append(base[:len(base):len(base)], repro.WithSeed(5))
	cases := map[string][2]repro.Sketch{
		"different seed":  {mustNew(t, "countmin", base...), mustNew(t, "countmin", other...)},
		"different algo":  {mustNew(t, "countmin", base...), mustNew(t, "countsketch", base...)},
		"different shape": {mustNew(t, "countmin", base...), mustNew(t, "countmin", repro.WithDim(100), repro.WithWords(32), repro.WithDepth(3))},
		"l1sr into l2sr":  {mustNew(t, "l2sr", base...), mustNew(t, "l1sr", base...)},
		"l2sr into l1sr":  {mustNew(t, "l1sr", base...), mustNew(t, "l2sr", base...)},
		"l2sr other seed": {mustNew(t, "l2sr", base...), mustNew(t, "l2sr", other...)},
	}
	for name, c := range cases {
		if err := repro.Merge(c[0], c[1]); !errors.Is(err, repro.ErrIncompatible) {
			t.Errorf("%s: Merge error = %v, want ErrIncompatible", name, err)
		}
	}
}

// The capability hierarchy is meaningful: type assertions reflect what
// each algorithm can actually do.
func TestCapabilityHierarchy(t *testing.T) {
	opts := []repro.Option{repro.WithDim(100), repro.WithWords(16), repro.WithDepth(3)}
	type caps struct{ linear, serial, biased bool }
	want := map[string]caps{
		"l2sr":     {true, true, true},
		"l1sr":     {true, true, true},
		"countmin": {true, true, false},
		"cmcu":     {false, false, false},
		"cmlcu":    {false, false, false},
		"exact":    {true, false, false},
	}
	for algo, w := range want {
		s := mustNew(t, algo, opts...)
		_, linear := s.(repro.Linear)
		_, serial := s.(repro.Serializable)
		_, biased := s.(repro.Biased)
		if got := (caps{linear, serial, biased}); got != w {
			t.Errorf("%s: capabilities %+v, want %+v", algo, got, w)
		}
	}
}

func TestExactNotSerializableButMarshalableCMCUIs(t *testing.T) {
	ex := repro.Exact(50)
	if _, err := repro.Marshal(ex); !errors.Is(err, repro.ErrNotSerializable) {
		t.Errorf("Marshal(exact) = %v, want ErrNotSerializable", err)
	}
	// cmcu is not Serializable (not linear, never shipped between
	// sites) but still persists locally through Marshal/Unmarshal.
	cm := mustNew(t, "cmcu", repro.WithDim(50), repro.WithWords(16), repro.WithDepth(3))
	if _, err := repro.Marshal(cm); err != nil {
		t.Errorf("Marshal(cmcu) = %v, want nil", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := repro.New("bogus", repro.WithDim(10)); !errors.Is(err, repro.ErrUnknownAlgorithm) {
		t.Errorf("unknown algo error = %v", err)
	}
	if _, err := repro.New("l2sr"); err == nil {
		t.Error("missing WithDim should fail")
	}
	if _, err := repro.New("l2sr", repro.WithDim(10), repro.WithWords(-1)); err == nil {
		t.Error("negative words should fail")
	}
	if _, err := repro.New("l2sr", repro.WithDim(10), repro.WithDepth(0), repro.WithDepth(-2)); err == nil {
		t.Error("non-positive depth should fail")
	}
}

// New must reject any shape the wire format's Unmarshal-side bounds
// would reject, so a site can never marshal packets the coordinator
// cannot load.
func TestNewEnforcesWireFormatBounds(t *testing.T) {
	cases := map[string][]repro.Option{
		"row width below 4": {repro.WithDim(100), repro.WithWords(2), repro.WithDepth(3)},
		"depth above 64":    {repro.WithDim(100), repro.WithWords(16), repro.WithDepth(100)},
		"dim above 2^26":    {repro.WithDim(1 << 27), repro.WithWords(16), repro.WithDepth(3)},
		"table too large":   {repro.WithDim(100), repro.WithWords(1 << 22), repro.WithDepth(64)},
	}
	for name, opts := range cases {
		if _, err := repro.New("countmin", opts...); err == nil {
			t.Errorf("%s: New should fail", name)
		}
	}
	// Anything New accepts must round-trip.
	sk := mustNew(t, "countmin", repro.WithDim(100), repro.WithWords(4), repro.WithDepth(1))
	data, err := repro.Marshal(sk)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := repro.Unmarshal(data); err != nil {
		t.Fatalf("minimal accepted shape does not round-trip: %v", err)
	}
}

func TestBiasHelpers(t *testing.T) {
	l2 := mustNew(t, "l2sr", repro.WithDim(1000), repro.WithWords(256), repro.WithDepth(5))
	for i := 0; i < 1000; i++ {
		l2.Update(i, 100)
	}
	l2.Update(7, 10_000)
	beta, err := repro.Bias(l2)
	if err != nil {
		t.Fatalf("Bias: %v", err)
	}
	if beta < 50 || beta > 150 {
		t.Errorf("bias estimate %f, want ≈100", beta)
	}
	top, err := repro.TopK(l2, 1)
	if err != nil || len(top) != 1 || top[0].Index != 7 {
		t.Errorf("TopK = %v, %v; want index 7", top, err)
	}

	cm := mustNew(t, "countmin", repro.WithDim(100), repro.WithWords(16), repro.WithDepth(3))
	if _, err := repro.Bias(cm); !errors.Is(err, repro.ErrNoBias) {
		t.Errorf("Bias(countmin) error = %v, want ErrNoBias", err)
	}
	if _, err := repro.TopK(cm, 3); !errors.Is(err, repro.ErrNoBias) {
		t.Errorf("TopK(countmin) error = %v, want ErrNoBias", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE00000000"),
		"truncated": []byte("BAS1\x01\x00"),
	} {
		if _, err := repro.Unmarshal(b); err == nil {
			t.Errorf("%s: Unmarshal should fail", name)
		}
	}
}

func TestRangeSketch(t *testing.T) {
	const n = 2048
	rq, err := repro.NewRange(n, func(_, size int, seed int64) repro.Sketch {
		if size <= 256 {
			return repro.Exact(size)
		}
		return repro.MustNew("l2sr",
			repro.WithDim(size), repro.WithWords(128), repro.WithDepth(5), repro.WithSeed(seed))
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	r := rand.New(rand.NewSource(4))
	for i := range x {
		x[i] = float64(50 + r.Intn(20))
		rq.Update(i, x[i])
	}
	var exact float64
	for _, v := range x[100:600] {
		exact += v
	}
	got := rq.RangeSum(100, 600)
	if math.Abs(got-exact) > 0.05*exact {
		t.Errorf("RangeSum(100,600) = %f, exact %f", got, exact)
	}
	mid := rq.Quantile(0.5)
	if mid < n/3 || mid > 2*n/3 {
		t.Errorf("median second %d implausible for uniform mass", mid)
	}
}

// Every sketch New constructs exposes the batched ingestion path, and
// the batch must leave exactly the state of the element-wise loop —
// query-for-query, including the bias estimate where there is one.
func TestUpdateBatchMatchesElementwiseEveryAlgorithm(t *testing.T) {
	for _, algo := range append(append([]string{}, paperAlgos...), "l1mean", "l2mean", "exact") {
		opts := []repro.Option{
			repro.WithDim(20000), repro.WithWords(256), repro.WithDepth(7), repro.WithSeed(21),
		}
		batched := mustNew(t, algo, opts...)
		seq := mustNew(t, algo, opts...)
		if _, ok := batched.(repro.BatchUpdater); !ok {
			t.Fatalf("%s: facade sketch does not satisfy repro.BatchUpdater", algo)
		}
		r := rand.New(rand.NewSource(22))
		for round := 0; round < 10; round++ {
			m := 1 + r.Intn(700)
			idx := make([]int, m)
			deltas := make([]float64, m)
			for j := range idx {
				idx[j] = r.Intn(20000)
				deltas[j] = float64(1 + r.Intn(5)) // non-negative: cmcu/cmlcu safe
			}
			if err := repro.UpdateBatch(batched, idx, deltas); err != nil {
				t.Fatalf("%s: UpdateBatch: %v", algo, err)
			}
			for j := range idx {
				seq.Update(idx[j], deltas[j])
			}
		}
		for i := 0; i < 20000; i += 89 {
			if a, b := batched.Query(i), seq.Query(i); a != b {
				t.Fatalf("%s: query %d: batched %v, element-wise %v", algo, i, a, b)
			}
		}
		if bb, err1 := repro.Bias(batched); err1 == nil {
			bs, _ := repro.Bias(seq)
			if bb != bs {
				t.Fatalf("%s: bias: batched %v, element-wise %v", algo, bb, bs)
			}
		}
	}
}

// A length mismatch is reported as an error before any update lands.
func TestUpdateBatchLengthMismatch(t *testing.T) {
	s := mustNew(t, "countmin", repro.WithDim(100), repro.WithWords(16), repro.WithDepth(3))
	if err := repro.UpdateBatch(s, []int{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should return an error")
	}
	for i := 0; i < 100; i++ {
		if s.Query(i) != 0 {
			t.Fatalf("sketch modified despite mismatch: Query(%d) = %f", i, s.Query(i))
		}
	}
}

// foreignSketch is a Sketch implementation from outside the module
// with no native batched path; the helper must loop for it.
type foreignSketch struct{ x []float64 }

func (f *foreignSketch) Update(i int, delta float64) { f.x[i] += delta }
func (f *foreignSketch) Query(i int) float64         { return f.x[i] }
func (f *foreignSketch) Dim() int                    { return len(f.x) }
func (f *foreignSketch) Words() int                  { return len(f.x) }
func (f *foreignSketch) Algo() string                { return "foreign" }

func TestUpdateBatchFallsBackForForeignSketch(t *testing.T) {
	f := &foreignSketch{x: make([]float64, 10)}
	if err := repro.UpdateBatch(f, []int{2, 2, 9}, []float64{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if f.x[2] != 3 || f.x[9] != 4 {
		t.Fatalf("fallback loop lost updates: %v", f.x)
	}
}

// Acceptance shape of the issue: batched sharded ingestion must end in
// the same counters as one sequential sketch fed element-wise.
func TestShardedUpdateBatchMatchesSequential(t *testing.T) {
	opts := []repro.Option{
		repro.WithDim(5000), repro.WithWords(128), repro.WithDepth(5), repro.WithSeed(7),
	}
	sh, err := repro.NewSharded(4, "l2sr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	seq := mustNew(t, "l2sr", opts...)

	r := rand.New(rand.NewSource(23))
	for round := 0; round < 40; round++ {
		m := 1 + r.Intn(500)
		idx := make([]int, m)
		deltas := make([]float64, m)
		for j := range idx {
			idx[j] = r.Intn(5000)
			deltas[j] = float64(1 + r.Intn(3))
			seq.Update(idx[j], deltas[j])
		}
		if err := sh.UpdateBatch(round, idx, deltas); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.UpdateBatch(0, []int{1}, []float64{1, 2}); err == nil {
		t.Fatal("sharded length mismatch should return an error")
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i += 13 {
		if a, b := seq.Query(i), snap.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: sharded-batched %f != sequential %f", i, b, a)
		}
	}
}

// SketchVector mirrors the internal implementation: error on length
// mismatch, zero coordinates skipped.
func TestSketchVectorDelegation(t *testing.T) {
	s := mustNew(t, "countmin", repro.WithDim(4), repro.WithWords(8), repro.WithDepth(2))
	if err := repro.SketchVector(s, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should return an error")
	}
	if err := repro.SketchVector(s, []float64{5, 0, 0, 7}); err != nil {
		t.Fatal(err)
	}
	if got := s.Query(0); got < 5 {
		t.Errorf("Query(0) = %f, want >= 5", got)
	}
}

// NewRange must stop invoking the level factory after the first nil
// return instead of building dead placeholder levels.
func TestNewRangeShortCircuitsOnFactoryError(t *testing.T) {
	calls := 0
	_, err := repro.NewRange(1<<16, func(level, size int, seed int64) repro.Sketch {
		calls++
		return nil // fail immediately on level 0
	}, 1)
	if err == nil {
		t.Fatal("nil factory result should fail NewRange")
	}
	if calls != 1 {
		t.Fatalf("factory called %d times after failing on the first level, want 1", calls)
	}
}
