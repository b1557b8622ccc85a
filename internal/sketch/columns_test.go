package sketch

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// π must count every coordinate exactly once per row (columns of a
// CM-matrix each have exactly one 1).
func TestColumnCountsSumToN(t *testing.T) {
	cfg := Config{N: 5000, Rows: 64, Depth: 4}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(1))))
	for tr := 0; tr < cfg.Depth; tr++ {
		pi := cm.weights()[tr]
		if len(pi) != cfg.Rows {
			t.Fatalf("row %d: len(pi) = %d", tr, len(pi))
		}
		var sum float64
		for _, v := range pi {
			sum += v
		}
		if sum != float64(cfg.N) {
			t.Errorf("row %d: sum(pi) = %f, want %d", tr, sum, cfg.N)
		}
	}
	// Cached: same slice on second call.
	if &cm.weights()[0][0] != &cm.weights()[0][0] {
		t.Error("π not cached")
	}
}

// π must agree with the bucket assignment: updating coordinate i by 1
// lands in bucket h_t(i), and that bucket's π counts i.
func TestColumnCountsMatchBucketIndex(t *testing.T) {
	cfg := Config{N: 300, Rows: 16, Depth: 3}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(2))))
	for tr := 0; tr < cfg.Depth; tr++ {
		counts := make([]float64, cfg.Rows)
		for i := 0; i < cfg.N; i++ {
			counts[cm.tb.hash.Hash(tr, uint64(i))]++
		}
		pi := cm.weights()[tr]
		for b := range counts {
			if counts[b] != pi[b] {
				t.Fatalf("row %d bucket %d: recount %f != pi %f", tr, b, counts[b], pi[b])
			}
		}
	}
}

// Sketching the all-ones vector must produce exactly π in every row:
// Π(h)·1 = π by definition.
func TestColumnCountsViaAllOnes(t *testing.T) {
	cfg := Config{N: 1000, Rows: 32, Depth: 5}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(3))))
	for i := 0; i < cfg.N; i++ {
		cm.Update(i, 1)
	}
	for tr := 0; tr < cfg.Depth; tr++ {
		pi := cm.weights()[tr]
		for b := 0; b < cfg.Rows; b++ {
			if got := cm.tb.rows()[tr][b]; got != pi[b] {
				t.Fatalf("row %d bucket %d: Π·1 = %f != π = %f", tr, b, got, pi[b])
			}
		}
	}
}

// Likewise Ψ(h,r)·1 = ψ for the Count-Sketch.
func TestSignedColumnSumsViaAllOnes(t *testing.T) {
	cfg := Config{N: 1000, Rows: 32, Depth: 5}
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(4))))
	for i := 0; i < cfg.N; i++ {
		cs.Update(i, 1)
	}
	for tr := 0; tr < cfg.Depth; tr++ {
		psi := cs.weights()[tr]
		if len(psi) != cfg.Rows {
			t.Fatalf("row %d: len(psi) = %d", tr, len(psi))
		}
		for b := 0; b < cfg.Rows; b++ {
			if got := cs.tb.rows()[tr][b]; math.Abs(got-psi[b]) > 1e-12 {
				t.Fatalf("row %d bucket %d: Ψ·1 = %f != ψ = %f", tr, b, got, psi[b])
			}
		}
	}
}

// ψ must be consistent with the row signs r_t and hashes h_t.
func TestSignedColumnSumsMatchSigns(t *testing.T) {
	cfg := Config{N: 500, Rows: 16, Depth: 3}
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(5))))
	for tr := 0; tr < cfg.Depth; tr++ {
		sums := make([]float64, cfg.Rows)
		for i := 0; i < cfg.N; i++ {
			s := cs.signs.SignFloat(tr, uint64(i))
			sums[cs.tb.hash.Hash(tr, uint64(i))] += s
			if s != 1 && s != -1 {
				t.Fatalf("r_%d(%d) = %f", tr, i, s)
			}
		}
		psi := cs.weights()[tr]
		for b := range sums {
			if sums[b] != psi[b] {
				t.Fatalf("row %d bucket %d: recomputed %f != psi %f", tr, b, sums[b], psi[b])
			}
		}
	}
}

// The point and row-major de-biased gathers agree bit for bit with
// each other and with r_t(i)·(y_t[h_t(i)] − β·w_t[h_t(i)]) computed
// from the cached weights, on both hash families.
func TestDebiasedPointMatchesRow(t *testing.T) {
	const beta = 2.5
	for _, hk := range []HashKind{HashPairwise, HashTabulation} {
		cfg := Config{N: 700, Rows: 32, Depth: 5, Hash: hk}
		r := rand.New(rand.NewSource(9))
		cm := must(NewCountMedian(cfg, r))
		cs := must(NewCountSketch(cfg, r))
		for i := 0; i < cfg.N; i++ {
			cm.Update(i, float64(i%7))
			cs.Update(i, float64(i%7))
		}
		want := func(d Debiasable, tr, i int) float64 {
			switch s := d.(type) {
			case *CountMedian:
				b := s.tb.hash.Hash(tr, uint64(i))
				return s.tb.rows()[tr][b] - beta*s.weights()[tr][b]
			case *CountSketch:
				b := s.tb.hash.Hash(tr, uint64(i))
				return s.signs.SignFloat(tr, uint64(i)) * (s.tb.rows()[tr][b] - beta*s.weights()[tr][b])
			}
			panic("unreachable")
		}
		tile := []int{0, 3, 699, 42, 3}
		for _, d := range []Debiasable{cm, cs} {
			d.PrepareWeights()
			point := make([]float64, cfg.Depth)
			row := make([]float64, len(tile))
			sc := GetQScratch(cfg.Depth, len(tile))
			for tr := 0; tr < cfg.Depth; tr++ {
				d.DebiasedRow(tr, tile, beta, row, sc)
				for j, i := range tile {
					d.DebiasedPoint(i, beta, point)
					if w := want(d, tr, i); row[j] != w || point[tr] != w {
						t.Fatalf("%T/%v row %d coord %d: row %v point %v want %v", d, hk, tr, i, row[j], point[tr], w)
					}
				}
			}
			PutQScratch(sc)
		}
	}
}

// ShareWeights adopts the cache only from a sketch of the same type,
// shape, and seeds.
func TestShareWeights(t *testing.T) {
	cfg := Config{N: 300, Rows: 16, Depth: 3}
	mk := func(seed int64) (*CountMedian, *CountSketch) {
		return must(NewCountMedian(cfg, rand.New(rand.NewSource(seed)))),
			must(NewCountSketch(cfg, rand.New(rand.NewSource(seed))))
	}
	cmA, csA := mk(10)
	cmA.PrepareWeights()
	csA.PrepareWeights()
	cmB, csB := mk(10)
	cmC, csC := mk(11)
	cmB.ShareWeights(csA) // wrong type: ignored
	csB.ShareWeights(cmA)
	cmC.ShareWeights(cmA) // other seeds: ignored
	csC.ShareWeights(csA)
	if cmB.pis.Load() != nil || csB.psis.Load() != nil || cmC.pis.Load() != nil || csC.psis.Load() != nil {
		t.Fatal("weights adopted from an incompatible sketch")
	}
	cmB.ShareWeights(cmA)
	csB.ShareWeights(csA)
	if cmB.pis.Load() != cmA.pis.Load() || csB.psis.Load() != csA.psis.Load() {
		t.Fatal("weights not adopted from a compatible sketch")
	}
}

func TestCountMinMarshalRoundTrip(t *testing.T) {
	cfg := Config{N: 200, Rows: 16, Depth: 3}
	a := must(NewCountMin(cfg, rand.New(rand.NewSource(6))))
	for i := 0; i < 500; i++ {
		a.Update(i%cfg.N, 2)
	}
	b := must(NewCountMin(cfg, rand.New(rand.NewSource(6))))
	if err := b.Unmarshal(must(a.Marshal())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if a.Query(i) != b.Query(i) {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if a.Words() != cfg.Rows*cfg.Depth {
		t.Errorf("Words = %d", a.Words())
	}
}

func TestDimAccessors(t *testing.T) {
	cfg := Config{N: 77, Rows: 8, Depth: 2}
	r := rand.New(rand.NewSource(7))
	for name, s := range map[string]Sketch{
		"cmcu":  must(NewCMCU(cfg, r)),
		"cmlcu": must(NewCMLCU(cfg, DefaultCMLBase, r)),
		"cs":    must(NewCountSketch(cfg, r)),
	} {
		if s.Dim() != 77 {
			t.Errorf("%s: Dim = %d", name, s.Dim())
		}
		if s.Words() < cfg.Rows*cfg.Depth {
			t.Errorf("%s: Words = %d", name, s.Words())
		}
	}
}

func TestDengRafieiRejectsOneRow(t *testing.T) {
	if _, err := NewDengRafiei(Config{N: 10, Rows: 1, Depth: 2}, rand.New(rand.NewSource(8))); !errors.Is(err, ErrConfig) {
		t.Fatalf("Rows < 2: got %v, want ErrConfig", err)
	}
}
