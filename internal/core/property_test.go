package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: linearity — for any random update stream and any split of
// it into two halves, merge(sketch(A), sketch(B)) answers every query
// exactly like sketch(A+B). Checked across both schemes and estimator
// modes with randomized shapes.
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(2000)
		k := 1 + r.Intn(8)
		updates := 100 + r.Intn(2000)

		type upd struct {
			i int
			d float64
		}
		us := make([]upd, updates)
		for u := range us {
			us[u] = upd{r.Intn(n), math.Round(r.NormFloat64() * 10)}
		}

		check := func(mk func() interface {
			Update(int, float64)
			Query(int) float64
		}, merge func(a, b interface{}) error) bool {
			whole := mk()
			left := mk()
			right := mk()
			for u, x := range us {
				whole.Update(x.i, x.d)
				if u%2 == 0 {
					left.Update(x.i, x.d)
				} else {
					right.Update(x.i, x.d)
				}
			}
			if err := merge(left, right); err != nil {
				return false
			}
			for i := 0; i < n; i += 1 + n/37 {
				if math.Abs(whole.Query(i)-left.Query(i)) > 1e-6 {
					return false
				}
			}
			return true
		}

		seedL1 := r.Int63()
		okL1 := check(func() interface {
			Update(int, float64)
			Query(int) float64
		} {
			return New(Config{Scheme: L1, N: n, K: k, SampleCount: 16}, rand.New(rand.NewSource(seedL1)))
		}, func(a, b interface{}) error {
			return a.(*SR).MergeFrom(b.(*SR))
		})

		seedL2 := r.Int63()
		_ = r.Intn(2) // keeps the seed sequence of the draws below stable
		okL2 := check(func() interface {
			Update(int, float64)
			Query(int) float64
		} {
			return New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(seedL2)))
		}, func(a, b interface{}) error {
			return a.(*SR).MergeFrom(b.(*SR))
		})

		return okL1 && okL2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: scale equivariance — sketching c·x yields estimates
// c·(estimates of x) when both sketches share seeds, because every
// component (cells, samples, bucket sums) is linear.
func TestScaleEquivarianceProperty(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		c := float64(1 + int(cRaw)%7)
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(1000)
		k := 1 + r.Intn(6)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Round(r.NormFloat64() * 20)
		}
		skSeed := r.Int63()
		a := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(skSeed)))
		b := New(Config{Scheme: L2, N: n, K: k}, rand.New(rand.NewSource(skSeed)))
		for i, v := range x {
			a.Update(i, v)
			b.Update(i, c*v)
		}
		for i := 0; i < n; i += 1 + n/29 {
			qa, qb := a.Query(i), b.Query(i)
			if math.Abs(c*qa-qb) > 1e-6*(1+math.Abs(qb)) {
				return false
			}
		}
		return math.Abs(c*a.Bias()-b.Bias()) < 1e-6*(1+math.Abs(b.Bias()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: query determinism — queries do not mutate state; asking
// twice gives the identical answer, interleaved with bias queries.
func TestQueryIdempotenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(500)
		l1 := New(Config{Scheme: L1, N: n, K: 2, SampleCount: 8}, rand.New(rand.NewSource(seed+1)))
		l2 := New(Config{Scheme: L2, N: n, K: 2}, rand.New(rand.NewSource(seed+2)))
		for u := 0; u < 300; u++ {
			i, d := r.Intn(n), float64(r.Intn(9)-4)
			l1.Update(i, d)
			l2.Update(i, d)
		}
		for i := 0; i < n; i += 7 {
			a1, b1 := l1.Query(i), l2.Query(i)
			_ = l1.Bias()
			_ = l2.Bias()
			if l1.Query(i) != a1 || l2.Query(i) != b1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
