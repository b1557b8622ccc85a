package sketch

import (
	"sync/atomic"

	"repro/internal/hashing"
)

// This file is the contract the bias-aware recoveries of internal/core
// (ℓ1-S/R, ℓ2-S/R) need from the classical sketch under them. Both
// recoveries compute, per row t,
//
//	r_t(i)·(y_t[h_t(i)] − β̂·w_t[h_t(i)])
//
// and take the median over rows: Algorithm 2 uses the Count-Median
// sketch with r ≡ 1 and w = π, the column counts of Π(h_t) (bucket
// occupancies); Algorithm 4 uses the Count-Sketch with its signs r_t
// and w = ψ, the signed column sums of Ψ(h_t, r_t). The column weights
// depend only on the hash functions, never on the data — in the
// distributed model they are "common knowledge" shared alongside the
// hash seeds (§5.5, footnote 4) — so each distinct row is built once
// per process and shared by every sketch drawn from the same seed
// (see RowWeights in weights.go).

// Debiasable is a linear sketch whose rows can be de-biased by a
// scalar β: *CountMedian (w = π) and *CountSketch (r_t, w = ψ).
type Debiasable interface {
	Linear
	// Marshal and Unmarshal capture and restore the counter state.
	Marshal() ([]byte, error)
	Unmarshal(b []byte) error
	// CheckIndexBatch validates a query batch (matching lengths,
	// in-range indexes) without touching any state.
	CheckIndexBatch(idx []int, out []float64)
	// DebiasedPoint writes row t's de-biased value of coordinate i
	// into out[t] for every row t (len(out) == depth).
	DebiasedPoint(i int, beta float64, out []float64)
	// DebiasedRow writes row t's de-biased value of every tile element
	// into o (len(o) == len(tile)), using sc.Ints/sc.F1 as tile-width
	// scratch — the row-major gather of QueryBatchMedian.
	DebiasedRow(t int, tile []int, beta float64, o []float64, sc *QScratch)
	// PrepareWeights looks up (building on a process-wide miss) and
	// returns the per-row column weights, so the first de-biased read
	// does not pay for them. The rows are shared process-wide with
	// every sketch of the same shape and seeds and must not be
	// modified.
	PrepareWeights() [][]float64
}

// columnWeights returns the per-row column weights memoized in w,
// fetching them from the process-wide cache on first use:
// w_t[b] = Σ_{j: h_t(j)=b} r_t(j), with r ≡ 1 when signs is nil (π)
// and r_t = signs (ψ). Concurrent first readers install the same
// shared rows, and later readers see one immutable slice. Callers must
// not modify it.
func (tb *table) columnWeights(w *atomic.Pointer[[][]float64], signs *hashing.SignFamily) [][]float64 {
	if p := w.Load(); p != nil {
		return *p
	}
	ws := make([][]float64, tb.cfg.Depth)
	for t := range ws {
		ws[t] = RowWeights(tb.hash, t, signs, tb.cfg.N)
	}
	w.CompareAndSwap(nil, &ws)
	return *w.Load()
}

// debiasedPoint writes y_t[h_t(u)] − β·w_t[h_t(u)] for every row t
// into out, branching the hash family arm once instead of per row.
//
//sketch:hotpath
func (tb *table) debiasedPoint(u uint64, beta float64, w [][]float64, out []float64) {
	cells := tb.rows()
	if ts := tb.hash.T; ts != nil {
		for t, h := range ts {
			b := h.Hash(u)
			out[t] = cells[t][b] - beta*w[t][b]
		}
		return
	}
	for t, h := range tb.hash.H {
		b := h.Hash(u)
		out[t] = cells[t][b] - beta*w[t][b]
	}
}

// debiasedRow writes y_t[h_t(tile[j])] − β·w[h_t(tile[j])] into o[j],
// hashing the tile into sc.Ints with one coefficient load.
//
//sketch:hotpath
func (tb *table) debiasedRow(t int, tile []int, beta float64, w []float64, o []float64, sc *QScratch) {
	hb := sc.Ints[:len(tile)]
	tb.hash.HashMany(t, tile, hb)
	row := tb.rows()[t]
	for j, b := range hb {
		o[j] = row[b] - beta*w[b]
	}
}

// weights returns π, the per-row column counts π_t[b] = |{j : h_t(j) = b}|.
func (c *CountMedian) weights() [][]float64 { return c.tb.columnWeights(&c.pis, nil) }

// DebiasedPoint implements Debiasable: y_t[h_t(i)] − β·π_t[h_t(i)]
// for every row t (Algorithm 2 line 3, restricted to coordinate i).
//
//sketch:hotpath
func (c *CountMedian) DebiasedPoint(i int, beta float64, out []float64) {
	c.tb.checkIndex(i)
	c.tb.debiasedPoint(uint64(i), beta, c.weights(), out)
}

// DebiasedRow implements Debiasable: row t's y_t[h_t(i)] − β·π_t[h_t(i)]
// for every tile element.
//
//sketch:hotpath
func (c *CountMedian) DebiasedRow(t int, tile []int, beta float64, o []float64, sc *QScratch) {
	c.tb.debiasedRow(t, tile, beta, c.weights()[t], o, sc)
}

// PrepareWeights implements Debiasable by returning π.
func (c *CountMedian) PrepareWeights() [][]float64 { return c.weights() }

// CheckIndexBatch implements Debiasable.
func (c *CountMedian) CheckIndexBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
}

// weights returns ψ, the per-row signed column sums
// ψ_t[b] = Σ_{j: h_t(j)=b} r_t(j).
func (c *CountSketch) weights() [][]float64 { return c.tb.columnWeights(&c.psis, &c.signs) }

// DebiasedPoint implements Debiasable: r_t(i)·(y_t[h_t(i)] − β·ψ_t[h_t(i)])
// for every row t (Algorithm 4 line 5, restricted to coordinate i).
//
//sketch:hotpath
func (c *CountSketch) DebiasedPoint(i int, beta float64, out []float64) {
	c.tb.checkIndex(i)
	u := uint64(i)
	c.tb.debiasedPoint(u, beta, c.weights(), out)
	if ts := c.signs.T; ts != nil {
		for t, s := range ts {
			out[t] *= s.SignFloat(u)
		}
		return
	}
	for t, s := range c.signs.S {
		out[t] *= s.SignFloat(u)
	}
}

// DebiasedRow implements Debiasable: row t's
// r_t(i)·(y_t[h_t(i)] − β·ψ_t[h_t(i)]) for every tile element.
//
//sketch:hotpath
func (c *CountSketch) DebiasedRow(t int, tile []int, beta float64, o []float64, sc *QScratch) {
	c.tb.debiasedRow(t, tile, beta, c.weights()[t], o, sc)
	sg := sc.F1[:len(tile)]
	c.signs.SignFloatMany(t, tile, sg)
	for j := range o {
		o[j] *= sg[j]
	}
}

// PrepareWeights implements Debiasable by returning ψ.
func (c *CountSketch) PrepareWeights() [][]float64 { return c.weights() }

// CheckIndexBatch implements Debiasable.
func (c *CountSketch) CheckIndexBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
}
