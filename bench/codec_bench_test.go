// Wire-format benchmarks at the public-API level: single-sketch
// Encode/Decode and composite checkpoint/restore throughput in MB/s
// (b.SetBytes on the payload size), the serving-side cost of
// durability and site→coordinator shipping.
package bench_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro"
)

const codecDim = 100_000

func codecSketch(b *testing.B, algo string) repro.Sketch {
	b.Helper()
	sk, err := repro.New(algo, repro.WithDim(codecDim), repro.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 200_000; u++ {
		sk.Update((u*u+13)%codecDim, float64(1+u%5))
	}
	return sk
}

func BenchmarkEncode(b *testing.B) {
	for _, algo := range []string{"countmin", "l2sr"} {
		b.Run(algo, func(b *testing.B) {
			sk := codecSketch(b, algo)
			data, err := repro.Marshal(sk)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := repro.Encode(io.Discard, sk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, algo := range []string{"countmin", "l2sr"} {
		b.Run(algo, func(b *testing.B) {
			data, err := repro.Marshal(codecSketch(b, algo))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repro.Unmarshal(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// codecSharded is a 4-shard sketch of 200k updates.
func codecSharded(b *testing.B, algo string) *repro.Sharded {
	b.Helper()
	s, err := repro.NewSharded(4, algo, repro.WithDim(codecDim), repro.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 200_000; u++ {
		s.Update(u%4, (u*u+13)%codecDim, 1)
	}
	return s
}

// codecWindowed is a 2-shard, 6-pane window of 200k updates, advanced
// every 40k.
func codecWindowed(b *testing.B, algo string) *repro.Windowed {
	b.Helper()
	w, err := repro.NewWindowed(2, algo,
		repro.WithDim(codecDim), repro.WithSeed(7), repro.WithPanes(6))
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 200_000; u++ {
		if err := w.Update(u%2, (u*u+13)%codecDim, 1); err != nil {
			b.Fatal(err)
		}
		if u%40_000 == 39_999 {
			if err := w.Advance(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	return w
}

// checkpointer is the surface the composite benchmarks drive.
type checkpointer interface {
	Checkpoint(w io.Writer) error
	QueryBatch(idx []int, out []float64) error
}

func benchCheckpoint(b *testing.B, s checkpointer) {
	var size bytes.Buffer
	if err := s.Checkpoint(&size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRestore times restore(checkpoint of s). With probes it also
// times one QueryBatch on the restored sketch, after querying s itself
// once and keeping it alive, so the restored replica finds its
// seed-determined query caches already warm in the process.
func benchRestore(b *testing.B, s checkpointer, restore func(io.Reader) (checkpointer, error), probes []int) {
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	out := make([]float64, len(probes))
	if len(probes) > 0 {
		if err := s.QueryBatch(probes, out); err != nil {
			b.Fatal(err)
		}
		defer runtime.KeepAlive(s)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := restore(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(probes) == 0 {
			continue
		}
		if err := r.QueryBatch(probes, out); err != nil {
			b.Fatal(err)
		}
	}
}

func restoreSharded(r io.Reader) (checkpointer, error)  { return repro.RestoreSharded(r) }
func restoreWindowed(r io.Reader) (checkpointer, error) { return repro.RestoreWindowed(r) }

func BenchmarkCheckpointSharded(b *testing.B) { benchCheckpoint(b, codecSharded(b, "countmin")) }

func BenchmarkRestoreSharded(b *testing.B) {
	benchRestore(b, codecSharded(b, "countmin"), restoreSharded, nil)
}

func BenchmarkCheckpointWindowed(b *testing.B) { benchCheckpoint(b, codecWindowed(b, "countmin")) }

func BenchmarkRestoreWindowed(b *testing.B) {
	benchRestore(b, codecWindowed(b, "countmin"), restoreWindowed, nil)
}

// BenchmarkRestoreFirstQuery times a checkpoint restore plus the first
// 64-point QueryBatch on the restored sketch — time to serve, per
// kind. The first read warms the replica's column weights π/ψ; the
// live source holds them, so they come from the process-wide cache,
// as for every tenant, shard and pane after the first. The cold build
// is BenchmarkColumnWeights/cold in internal/sketch.
func BenchmarkRestoreFirstQuery(b *testing.B) {
	probes := make([]int, 64)
	for j := range probes {
		probes[j] = j * 1543 % codecDim
	}
	b.Run("sharded_l1sr", func(b *testing.B) {
		benchRestore(b, codecSharded(b, "l1sr"), restoreSharded, probes)
	})
	b.Run("sharded_l2sr", func(b *testing.B) {
		benchRestore(b, codecSharded(b, "l2sr"), restoreSharded, probes)
	})
	b.Run("windowed_l2sr", func(b *testing.B) {
		benchRestore(b, codecWindowed(b, "l2sr"), restoreWindowed, probes)
	})
}
