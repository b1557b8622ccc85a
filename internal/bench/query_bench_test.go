package bench

import (
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// Query benchmarks at the paper's §5.1 shape (s=4096, d=9), the twin
// of update_bench_test.go: the same b.N point queries flow through the
// element-wise Query loop and through QueryBatch in batches of
// queryBatchLen, so ns/op is directly comparable between the two — the
// batched number must win by the row-major traversal (one
// hash/sign-coefficient load per row per batch, cache-hot rows for the
// gather; the median/min step runs per element either way).
const (
	queryBenchN   = 1_000_000
	queryBenchS   = 4096
	queryBenchD   = 9
	queryBatchLen = 1024
	queryFillLen  = 1 << 18 // updates ingested before queries start
)

// queriedSketch builds an algorithm at the benchmark shape (via mk:
// MakeFast for the batched headline entries, Make for the element-wise
// and /pairwise entries) and feeds it a fixed stream, so queries touch
// realistically populated rows. It warms the read caches (the S/R
// column weights π/ψ) as a serving replica is warmed when published,
// so the timed loop never pays their O(n·d) build.
func queriedSketch(b *testing.B, algo string, mk func(string, int, int, int, int64) sketch.Sketch) sketch.Sketch {
	b.Helper()
	sk := mk(algo, queryBenchN, queryBenchS, queryBenchD, 1)
	r := rand.New(rand.NewSource(79))
	idx := make([]int, 4096)
	ones := make([]float64, 4096)
	for j := range ones {
		ones[j] = 1
	}
	for done := 0; done < queryFillLen; done += len(idx) {
		for j := range idx {
			idx[j] = r.Intn(queryBenchN)
		}
		sketch.UpdateBatch(sk, idx, ones)
	}
	if p, ok := sk.(interface{ PrepareRead() }); ok {
		p.PrepareRead()
	}
	return sk
}

// queryStream pre-materializes the queried coordinates so neither
// benchmark pays RNG costs inside the timed loop.
func queryStream() []int {
	r := rand.New(rand.NewSource(80))
	idx := make([]int, 1<<16)
	for j := range idx {
		idx[j] = r.Intn(queryBenchN)
	}
	return idx
}

func BenchmarkQuery(b *testing.B) {
	idx := queryStream()
	for _, algo := range All {
		b.Run(algo, func(b *testing.B) {
			sk := queriedSketch(b, algo, Make)
			mask := len(idx) - 1
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += sk.Query(idx[i&mask])
			}
			_ = sink
		})
	}
}

func BenchmarkQueryBatch(b *testing.B) {
	idx := queryStream()
	run := func(name string, mk func(string, int, int, int, int64) sketch.Sketch) {
		for _, algo := range All {
			b.Run(algo+name, func(b *testing.B) {
				sk := queriedSketch(b, algo, mk)
				out := make([]float64, queryBatchLen)
				span := len(idx) - queryBatchLen
				b.ResetTimer()
				for done := 0; done < b.N; done += queryBatchLen {
					m := queryBatchLen
					if rem := b.N - done; rem < m {
						m = rem
					}
					off := done % span
					sk.QueryBatch(idx[off:off+m], out[:m])
				}
			})
		}
	}
	run("", MakeFast)
	run("/pairwise", Make)
}
