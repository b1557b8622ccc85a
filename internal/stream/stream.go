// Package stream provides the streaming execution model of §1: a
// sequence of (coordinate, delta) updates applied online to one or
// more sketches, with per-update and per-query timing instrumentation
// used by the Figure 6 experiment (Hudong update/query time plots).
package stream

import (
	"fmt"
	"time"

	"repro/internal/sketch"
)

// Update is one stream element: x[I] += Delta. The classical insert-
// only model of [1] has Delta = 1; the turnstile model allows any
// sign.
type Update struct {
	I     int
	Delta float64
}

// Source yields stream updates until exhaustion.
type Source interface {
	// Next returns the next update; ok is false at end of stream.
	Next() (u Update, ok bool)
	// Reset rewinds the source so another algorithm can replay the
	// identical stream.
	Reset()
}

// SliceSource replays a fixed update slice.
type SliceSource struct {
	updates []Update
	pos     int
}

// NewSliceSource wraps a pre-materialized stream.
func NewSliceSource(us []Update) *SliceSource { return &SliceSource{updates: us} }

// Next implements Source.
func (s *SliceSource) Next() (Update, bool) {
	if s.pos >= len(s.updates) {
		return Update{}, false
	}
	u := s.updates[s.pos]
	s.pos++
	return u, true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the stream length.
func (s *SliceSource) Len() int { return len(s.updates) }

// UnitSource adapts a slice of coordinate indexes into unit-increment
// updates (the item-arrival model of [1]).
type UnitSource struct {
	items []int
	pos   int
}

// NewUnitSource wraps an item sequence.
func NewUnitSource(items []int) *UnitSource { return &UnitSource{items: items} }

// Next implements Source.
func (s *UnitSource) Next() (Update, bool) {
	if s.pos >= len(s.items) {
		return Update{}, false
	}
	u := Update{I: s.items[s.pos], Delta: 1}
	s.pos++
	return u, true
}

// Reset implements Source.
func (s *UnitSource) Reset() { s.pos = 0 }

// Len returns the stream length.
func (s *UnitSource) Len() int { return len(s.items) }

// Exact is the ground-truth "sketch": the full frequency vector. It is
// used to score streaming recoveries and as the trivial baseline.
type Exact struct {
	x []float64
}

// NewExact creates a ground-truth accumulator of dimension n.
func NewExact(n int) *Exact { return &Exact{x: make([]float64, n)} }

// Update implements sketch.Sketch.
func (e *Exact) Update(i int, delta float64) { e.x[i] += delta }

// UpdateBatch implements sketch.Sketch: x[idx[j]] += deltas[j]
// for every j. The whole batch is validated before any counter moves,
// matching the all-or-nothing contract of the hashed sketches.
func (e *Exact) UpdateBatch(idx []int, deltas []float64) {
	if len(idx) != len(deltas) {
		panic(fmt.Sprintf("stream: batch index count %d != delta count %d", len(idx), len(deltas)))
	}
	for _, i := range idx {
		if i < 0 || i >= len(e.x) {
			panic(fmt.Sprintf("stream: index %d out of range [0,%d)", i, len(e.x)))
		}
	}
	for j, i := range idx {
		e.x[i] += deltas[j]
	}
}

// Query implements sketch.Sketch.
func (e *Exact) Query(i int) float64 { return e.x[i] }

// QueryBatch implements sketch.Sketch: out[j] = x[idx[j]] for
// every j, after validating the whole batch. Trivially bit-identical
// to the element-wise Query loop.
func (e *Exact) QueryBatch(idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("stream: batch index count %d != output count %d", len(idx), len(out)))
	}
	for _, i := range idx {
		if i < 0 || i >= len(e.x) {
			panic(fmt.Sprintf("stream: index %d out of range [0,%d)", i, len(e.x)))
		}
	}
	for j, i := range idx {
		out[j] = e.x[i]
	}
}

// Dim implements sketch.Sketch.
func (e *Exact) Dim() int { return len(e.x) }

// Words implements sketch.Sketch.
func (e *Exact) Words() int { return len(e.x) }

// Vector returns the accumulated vector (not a copy).
func (e *Exact) Vector() []float64 { return e.x }

// DriveStats reports the cost of feeding a stream into a sketch.
type DriveStats struct {
	Updates     int
	Elapsed     time.Duration
	NsPerUpdate float64
}

// Drive replays src into sk, timing the whole pass.
func Drive(sk sketch.Sketch, src Source) DriveStats {
	src.Reset()
	var n int
	start := time.Now()
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		sk.Update(u.I, u.Delta)
		n++
	}
	el := time.Since(start)
	st := DriveStats{Updates: n, Elapsed: el}
	if n > 0 {
		st.NsPerUpdate = float64(el.Nanoseconds()) / float64(n)
	}
	return st
}

// QueryStats reports the cost of a batch of point queries.
type QueryStats struct {
	Queries    int
	Elapsed    time.Duration
	NsPerQuery float64
}

// MeasureQueries times point queries for every index in idxs.
func MeasureQueries(sk sketch.Sketch, idxs []int) QueryStats {
	start := time.Now()
	var sink float64
	for _, i := range idxs {
		sink += sk.Query(i)
	}
	el := time.Since(start)
	_ = sink
	st := QueryStats{Queries: len(idxs), Elapsed: el}
	if len(idxs) > 0 {
		st.NsPerQuery = float64(el.Nanoseconds()) / float64(len(idxs))
	}
	return st
}
