// Package heavyhitter finds the coordinates that deviate most from the
// data's bias — the "frequent elements" application of §1 restated for
// biased vectors, and the distributed outlier-detection use case of
// Yan et al. [31] that motivated BOMP. On biased data the classical
// notion ("largest coordinates") is useless because every coordinate
// carries the bias mass; the meaningful heavy hitters are the
// coordinates far from β.
package heavyhitter

import (
	"container/heap"
	"math"
	"sort"
)

// BiasedSketch is the query surface detection needs; both core.L1SR
// and core.L2SR satisfy it. Scan and TopK recover the full vector
// through QueryBatch in chunks: that read-heavy shape is exactly what
// the row-major batch path accelerates, and QueryBatch is
// bit-identical to the Query loop, so results never depend on it.
type BiasedSketch interface {
	Query(i int) float64
	QueryBatch(idx []int, out []float64)
	Bias() float64
	Dim() int
}

// Deviator is one reported outlier.
type Deviator struct {
	Index     int
	Estimate  float64 // x̂_i
	Deviation float64 // |x̂_i − β̂|
}

// scanChunk is the batch size of the chunked full-vector scans: large
// enough to amortize per-row hash-coefficient loads, small enough that
// the per-chunk scratch stays cache-resident.
const scanChunk = 1024

// forEachEstimate calls visit(i, x̂_i) for every coordinate, through
// the sketch's batched query path.
func forEachEstimate(s BiasedSketch, visit func(i int, est float64)) {
	n := s.Dim()
	idx := make([]int, scanChunk)
	out := make([]float64, scanChunk)
	for base := 0; base < n; base += scanChunk {
		m := scanChunk
		if rem := n - base; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			idx[j] = base + j
		}
		s.QueryBatch(idx[:m], out[:m])
		for j := 0; j < m; j++ {
			visit(base+j, out[j])
		}
	}
}

// Scan queries every coordinate and returns those whose estimated
// deviation from the bias exceeds threshold, sorted by decreasing
// deviation (ties by index). O(n) point queries, batched.
func Scan(s BiasedSketch, threshold float64) []Deviator {
	beta := s.Bias()
	var out []Deviator
	forEachEstimate(s, func(i int, est float64) {
		if dev := math.Abs(est - beta); dev > threshold {
			out = append(out, Deviator{Index: i, Estimate: est, Deviation: dev})
		}
	})
	sortDeviators(out)
	return out
}

// TopK returns the k coordinates with the largest estimated deviation
// from the bias, sorted by decreasing deviation. O(n) batched point
// queries with an O(k)-size selection heap.
func TopK(s BiasedSketch, k int) []Deviator {
	if k <= 0 {
		return nil
	}
	beta := s.Bias()
	h := &devMinHeap{}
	forEachEstimate(s, func(i int, est float64) {
		d := Deviator{Index: i, Estimate: est, Deviation: math.Abs(est - beta)}
		if h.Len() < k {
			heap.Push(h, d)
		} else if less((*h)[0], d) {
			(*h)[0] = d
			heap.Fix(h, 0)
		}
	})
	out := make([]Deviator, h.Len())
	copy(out, *h)
	sortDeviators(out)
	return out
}

// less orders deviators ascending: smaller deviation first, larger
// index breaking ties (so sort-descending puts smaller index first).
func less(a, b Deviator) bool {
	if a.Deviation != b.Deviation {
		return a.Deviation < b.Deviation
	}
	return a.Index > b.Index
}

func sortDeviators(ds []Deviator) {
	sort.Slice(ds, func(i, j int) bool { return less(ds[j], ds[i]) })
}

type devMinHeap []Deviator

func (h devMinHeap) Len() int            { return len(h) }
func (h devMinHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h devMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *devMinHeap) Push(x interface{}) { *h = append(*h, x.(Deviator)) }
func (h *devMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Tracker maintains an online candidate set of deviating coordinates
// during an insert-only stream, so heavy hitters are available at any
// time without an O(n) scan. After each sketch update, call Observe
// with the updated coordinate; if its current estimated deviation
// exceeds the threshold it becomes a candidate. Candidates are
// re-verified (re-queried against the current bias) when read.
//
// The insert-only assumption matters: a coordinate can only become a
// deviator through its own updates (upward) — a coordinate that is
// never updated stays at zero, which is itself a deviation when the
// bias is large, so Tracker also accepts an explicit low-side scan at
// read time via VerifyScanLow.
type Tracker struct {
	sk        BiasedSketch
	threshold float64
	maxSize   int
	candidate map[int]bool
}

// NewTracker creates a tracker over sk reporting deviations above
// threshold, holding at most maxSize candidates (oldest-evicted... the
// smallest current deviation is evicted when full).
func NewTracker(sk BiasedSketch, threshold float64, maxSize int) *Tracker {
	if maxSize <= 0 {
		panic("heavyhitter: maxSize must be positive")
	}
	return &Tracker{
		sk:        sk,
		threshold: threshold,
		maxSize:   maxSize,
		candidate: make(map[int]bool),
	}
}

// Observe examines coordinate i after an update to it.
func (t *Tracker) Observe(i int) {
	if t.candidate[i] {
		return
	}
	if math.Abs(t.sk.Query(i)-t.sk.Bias()) > t.threshold {
		if len(t.candidate) >= t.maxSize {
			t.evictWeakest()
		}
		t.candidate[i] = true
	}
}

// evictWeakest removes the candidate with the smallest current
// deviation.
func (t *Tracker) evictWeakest() {
	beta := t.sk.Bias()
	worst, worstDev := -1, math.Inf(1)
	for i := range t.candidate {
		if dev := math.Abs(t.sk.Query(i) - beta); dev < worstDev {
			worst, worstDev = i, dev
		}
	}
	if worst >= 0 {
		delete(t.candidate, worst)
	}
}

// Candidates re-verifies every tracked coordinate against the current
// bias and returns those still above threshold, sorted by decreasing
// deviation.
func (t *Tracker) Candidates() []Deviator {
	beta := t.sk.Bias()
	var out []Deviator
	for i := range t.candidate {
		est := t.sk.Query(i)
		if dev := math.Abs(est - beta); dev > t.threshold {
			out = append(out, Deviator{Index: i, Estimate: est, Deviation: dev})
		}
	}
	sortDeviators(out)
	return out
}

// Size returns the current candidate-set size.
func (t *Tracker) Size() int { return len(t.candidate) }
