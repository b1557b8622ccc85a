package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samples is a set of timings in milliseconds.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100); NaN when
// empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func (s samples) median() float64 { return s.pct(50) }

// tail returns the highest of the standard percentiles that has at
// least ten samples beyond it, and its value.
func (s samples) tail() (float64, float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, s.pct(p)
		}
	}
	return 50, s.median()
}

// describe formats a timing as its median and tail with the sample
// count, under the metric names the workload reports.
func (s samples) describe(name string) string {
	p, v := s.tail()
	if p == 50 {
		return fmt.Sprintf("%s_p50_ms = %.4f ms (n=%d, too few samples for a tail)", name, v, len(s))
	}
	return fmt.Sprintf("%s_p50_ms = %.4f ms, %s_p%s_ms = %.4f ms (n=%d)",
		name, s.median(), name, trimPct(p), v, len(s))
}

func trimPct(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("%d", int(p))
	}
	return fmt.Sprintf("%g", p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ledger is a workload's failure accounting: every operation attempted
// and why each failure failed. A refused, failed or mismatched
// operation is a failure.
type ledger struct {
	attempted, transport, status4xx, status429, status5xx, mismatch atomic.Int64

	mu    sync.Mutex
	first string // first failure, for the report
}

func (l *ledger) note(counter *atomic.Int64, format string, args ...any) {
	counter.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.first == "" {
		l.first = fmt.Sprintf(format, args...)
	}
}

// check counts one correctness check, failing it when ok is false.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted.Add(1)
	if !ok {
		l.note(&l.mismatch, format, args...)
	}
	return ok
}

func (l *ledger) failed() int64 {
	return l.transport.Load() + l.status4xx.Load() + l.status429.Load() + l.status5xx.Load() + l.mismatch.Load()
}

func (l *ledger) String() string {
	s := fmt.Sprintf("attempted=%d failed=%d (transport=%d 4xx=%d 429=%d 5xx=%d mismatch=%d)",
		l.attempted.Load(), l.failed(), l.transport.Load(), l.status4xx.Load(),
		l.status429.Load(), l.status5xx.Load(), l.mismatch.Load())
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.first != "" {
		s += "; first failure: " + l.first
	}
	return s
}
