// Package workload generates synthetic equivalents of every dataset in
// the paper's evaluation (§5.1). The real datasets (WorldCup access
// logs, Wikipedia pageviews, Higgs Monte Carlo, Memetracker, Hudong)
// are not redistributable in an offline build, so each generator
// reproduces the statistical property the corresponding experiment
// exercises: the bias structure (where most coordinates concentrate)
// and the tail/outlier shape. Each generator's doc comment in
// workload.go records its substitution.
package workload

import (
	"math"
	"math/rand"
)

// Poisson draws from Poisson(lambda). It uses Knuth's product method
// for small lambda and a Gaussian approximation (rounded, clamped at
// zero) above 30, which is indistinguishable at the workload scales
// used here.
func Poisson(r *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64())
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k := 0.0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Gamma draws from Gamma(shape, scale) using the Marsaglia–Tsang
// method (with Johnk-style boosting for shape < 1).
func Gamma(r *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		return Gamma(r, shape+1, scale) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// LogNormal draws from exp(N(mu, sigma²)).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
