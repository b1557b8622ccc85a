package sketch

import (
	"runtime"
	"sync"
	"unique"
	"unsafe"
	"weak"

	"repro/internal/hashing"
)

// The column weights of one row, w[b] = Σ_{j<n, h(j)=b} r(j), are a
// pure function of its hash function h, its sign function r (r ≡ 1 for
// π) and n, so one process-wide cache holds each distinct row once for
// every sketch, shard, replica, pane and restore drawn from the same
// seed, and for the ℓ2-S/R estimator's bucket row. Entries are weak: a
// cleanup drops a row's entry once the last sketch holding the row is
// collected, so tenant churn cannot grow the cache.

// weightChunk is the coordinate chunk of a row build: one hash (and
// sign) kernel call per chunk, with L1-resident buffers. The weights
// are integer sums, so they are bit-identical at any chunk width.
const weightChunk = 1024

// rowKey identifies one row exactly: a pairwise row by its
// coefficients, a tabulation row by its table contents (interned by
// unique, which compares every word), n, and rows = the row's Range.
// Unsigned rows leave both sign fields zero.
type rowKey struct {
	n, rows int
	h       hashing.Pairwise
	th      unique.Handle[hashing.Tabulation]
	s       hashing.Sign
	ts      unique.Handle[hashing.TabSign]
}

func newRowKey(h hashing.Family, t int, s *hashing.SignFamily, n int) rowKey {
	k := rowKey{n: n}
	if h.T != nil {
		k.th, k.rows = unique.Make(*h.T[t]), int(h.T[t].Range)
	} else {
		k.h, k.rows = h.H[t], int(h.H[t].Range)
	}
	switch {
	case s == nil:
	case s.T != nil:
		k.ts = unique.Make(*s.T[t])
	default:
		k.s = s.S[t]
	}
	return k
}

// rowRef is a cleanup's handle on its entry; the weak pointer tells it
// apart from a newer entry under the same key.
type rowRef struct {
	k rowKey
	w weak.Pointer[float64]
}

// weightCache maps each live row to a weak pointer at the base of its
// weights; the slice length is the key's rows.
var weightCache = struct {
	mu sync.Mutex
	m  map[rowKey]weak.Pointer[float64]
}{m: map[rowKey]weak.Pointer[float64]{}}

// releaseRow is the cleanup attached to every cached row.
var releaseRow = func(r rowRef) {
	weightCache.mu.Lock()
	defer weightCache.mu.Unlock()
	if weightCache.m[r.k] == r.w {
		delete(weightCache.m, r.k)
	}
}

// RowWeights returns row t's column weights over n coordinates,
// w[b] = Σ_{j<n, h_t(j)=b} r_t(j), with r ≡ 1 when signs is nil (π)
// and r_t = signs (ψ). The slice is shared with every caller asking
// for an identical row and must not be modified. A missing row is
// built under the cache lock, so concurrent first readers build it
// once and all return the same slice.
func RowWeights(h hashing.Family, t int, signs *hashing.SignFamily, n int) []float64 {
	k := newRowKey(h, t, signs, n)
	weightCache.mu.Lock()
	defer weightCache.mu.Unlock()
	if p := weightCache.m[k].Value(); p != nil {
		return unsafe.Slice(p, k.rows)
	}
	w := buildRow(h, t, signs, n, k.rows)
	p := weak.Make(&w[0])
	weightCache.m[k] = p
	runtime.AddCleanup(&w[0], releaseRow, rowRef{k, p})
	return w
}

// buildRow computes one row's weights chunk by chunk with the batched
// HashMany and SignFloatMany kernels.
func buildRow(h hashing.Family, t int, signs *hashing.SignFamily, n, rows int) []float64 {
	// Capacity ≥ 2 keeps the row out of the tiny allocator, whose
	// shared 16-byte blocks could postpone the row's cleanup forever.
	w := make([]float64, rows, max(rows, 2))
	idx := make([]int, min(n, weightChunk))
	hb := make([]int, len(idx))
	r := make([]float64, len(idx))
	for j := range r {
		r[j] = 1 // r ≡ 1 for π; the sign kernel overwrites it for ψ
	}
	for base := 0; base < n; base += len(idx) {
		xs := idx[:min(n-base, len(idx))]
		for j := range xs {
			xs[j] = base + j
		}
		h.HashMany(t, xs, hb)
		if signs != nil {
			signs.SignFloatMany(t, xs, r)
		}
		for j, b := range hb[:len(xs)] {
			w[b] += r[j]
		}
	}
	return w
}
