package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/window"
)

// The ℓ2 estimator's π is the per-coordinate bucket count of its
// pairwise g, bit for bit, for n below one weight chunk and for n not
// a multiple of it.
func TestMedianBucketPiMatchesReference(t *testing.T) {
	for _, n := range []int{3, 1000, 2*1024 + 7, 20000} {
		e := newMedianBucketEstimator(n, 64, 8, rand.New(rand.NewSource(int64(n))))
		want := make([]float64, 64)
		for j := 0; j < n; j++ {
			want[e.g.Hash(uint64(j))]++
		}
		for b := range want {
			if math.Float64bits(e.pi[b]) != math.Float64bits(want[b]) {
				t.Fatalf("n=%d bucket %d: π = %v, want %v", n, b, e.pi[b], want[b])
			}
		}
	}
}

// weightArrays returns the backing arrays an SR reads at query time:
// its sketch rows' π or ψ, plus the ℓ2 estimator's π.
func weightArrays(s *SR) []*float64 {
	var out []*float64
	for _, row := range s.sk.PrepareWeights() {
		out = append(out, &row[0])
	}
	if e, ok := s.est.(*medianBucketEstimator); ok {
		out = append(out, &e.pi[0])
	}
	return out
}

func sameArrays(a, b []*float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every replica of one configuration and seed reads the same weight
// arrays: a second sketch, a restored checkpoint, a Sharded snapshot
// (merged from its shards) and a Window view (merged across panes).
// Another seed shares none of them.
func TestReplicasShareWeights(t *testing.T) {
	for _, sch := range []Scheme{L1, L2} {
		cfg := Config{Scheme: sch, N: 5000, K: 8, Depth: 5}
		mk := func() *SR { return New(cfg, rand.New(rand.NewSource(77))) }
		merge := func(dst, src *SR) error { return dst.MergeFrom(src) }
		src := mk()
		for i := 0; i < 2000; i++ {
			src.Update(i*7%cfg.N, float64(i%5))
		}
		want := weightArrays(src)

		restored := mk()
		state, err := src.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalState(state); err != nil {
			t.Fatal(err)
		}

		sh := concurrent.New(4, mk, merge)
		for i := 0; i < 400; i++ {
			sh.Update(i, i%cfg.N, 1)
		}
		snap, err := sh.Refresh()
		if err != nil {
			t.Fatal(err)
		}

		win, err := window.New(window.Config{Panes: 3, Shards: 2}, mk, merge)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			if err := win.Update(p, p, 1); err != nil {
				t.Fatal(err)
			}
			if err := win.Advance(1); err != nil {
				t.Fatal(err)
			}
		}
		view, err := win.View()
		if err != nil {
			t.Fatal(err)
		}

		for name, s := range map[string]*SR{
			"second sketch": mk(),
			"restored":      restored,
			"sharded":       snap.Sketch(),
			"windowed":      view.Sketch(),
		} {
			if !sameArrays(want, weightArrays(s)) {
				t.Errorf("%v %s replica does not share the weight arrays", sch, name)
			}
		}
		other := weightArrays(New(cfg, rand.New(rand.NewSource(78))))
		for _, a := range other {
			for _, b := range want {
				if a == b {
					t.Fatalf("%v: another seed shares a weight array", sch)
				}
			}
		}
	}
}
