package repro_test

// Facade-level coverage for the hash-family surface: WithHashing
// validation, Hashings listings, the batch ≡ element-wise equivalence
// under tabulation, and checkpoint round-trips that must carry the family
// through every container — single sketches, Sharded, Windowed, and
// Monitor.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro"
)

const (
	hfDim   = 20000
	hfWords = 256
	hfDepth = 7
)

func hfOpts(extra ...repro.Option) []repro.Option {
	return append([]repro.Option{
		repro.WithDim(hfDim), repro.WithWords(hfWords),
		repro.WithDepth(hfDepth), repro.WithSeed(99),
	}, extra...)
}

// tabulationAlgos are the table sketches that accept WithHashing
// (everything in the registry except the bias-aware S/R schemes and
// the sample-based baselines).
var tabulationAlgos = []string{
	"countmin", "countmedian", "countsketch", "cmcu", "cmlcu", "dengrafiei",
}

func TestHashingsListings(t *testing.T) {
	if got := repro.Hashings("no-such-algo"); got != nil {
		t.Errorf("Hashings(unknown) = %v, want nil", got)
	}
	for _, algo := range tabulationAlgos {
		want := []repro.Hashing{repro.HashPairwise, repro.HashTabulation}
		got := repro.Hashings(algo)
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("Hashings(%s) = %v, want %v", algo, got, want)
		}
	}
	for _, algo := range []string{"l1sr", "l2sr", "l1mean", "l2mean"} {
		got := repro.Hashings(algo)
		if len(got) != 1 || got[0] != repro.HashPairwise {
			t.Errorf("Hashings(%s) = %v, want [pairwise]", algo, got)
		}
	}
}

func TestWithHashingValidation(t *testing.T) {
	// An out-of-range kind is a malformed option, not a capability
	// mismatch.
	if _, err := repro.New("countmin", hfOpts(repro.WithHashing(repro.Hashing(42)))...); !errors.Is(err, repro.ErrInvalidOption) {
		t.Errorf("New(countmin, hashing=42): got %v, want ErrInvalidOption", err)
	}
	// A valid kind an algorithm does not support is the typed
	// capability error, so callers can branch on it.
	for _, algo := range []string{"l1sr", "l2mean"} {
		if _, err := repro.New(algo, hfOpts(repro.WithHashing(repro.HashTabulation))...); !errors.Is(err, repro.ErrHashUnsupported) {
			t.Errorf("New(%s, tabulation): got %v, want ErrHashUnsupported", algo, err)
		}
	}
	// HashingOf reports what the sketch was built with.
	s := mustNew(t, "countmin", hfOpts(repro.WithHashing(repro.HashTabulation))...)
	if h := repro.HashingOf(s); h != repro.HashTabulation {
		t.Errorf("HashingOf = %v, want tabulation", h)
	}
	if h := repro.HashingOf(mustNew(t, "countmin", hfOpts()...)); h != repro.HashPairwise {
		t.Errorf("HashingOf(default) = %v, want pairwise", h)
	}
}

// Under tabulation the batched kernels must agree exactly with the
// element-wise path — same sketch state, same answers.
func TestTabulationBatchMatchesElementwise(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	idx := make([]int, 4096)
	deltas := make([]float64, len(idx))
	for j := range idx {
		idx[j] = r.Intn(hfDim)
		deltas[j] = float64(1 + r.Intn(5))
	}
	for _, algo := range tabulationAlgos {
		one := mustNew(t, algo, hfOpts(repro.WithHashing(repro.HashTabulation))...)
		two := mustNew(t, algo, hfOpts(repro.WithHashing(repro.HashTabulation))...)
		for j := range idx {
			one.Update(idx[j], deltas[j])
		}
		if err := repro.UpdateBatch(two, idx, deltas); err != nil {
			t.Fatalf("%s: UpdateBatch: %v", algo, err)
		}
		out := make([]float64, len(idx))
		if err := repro.QueryBatch(two, idx, out); err != nil {
			t.Fatalf("%s: QueryBatch: %v", algo, err)
		}
		for j, i := range idx {
			if e := one.Query(i); e != out[j] {
				t.Fatalf("%s: batch path diverges at %d: element-wise %v, batch %v", algo, i, e, out[j])
			}
		}
	}
}

// A tabulation checkpoint must round-trip through every serialization
// path with its family — and its answers — intact.
func TestTabulationCheckpointRoundTrip(t *testing.T) {
	for _, algo := range tabulationAlgos {
		orig := mustNew(t, algo, hfOpts(repro.WithHashing(repro.HashTabulation))...)
		fill(orig, 30000, 3)

		data, err := repro.Marshal(orig)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", algo, err)
		}
		loaded, err := repro.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", algo, err)
		}
		if h := repro.HashingOf(loaded); h != repro.HashTabulation {
			t.Fatalf("%s: family lost in round-trip: %v", algo, h)
		}
		for i := 0; i < hfDim; i += 97 {
			if a, b := orig.Query(i), loaded.Query(i); a != b {
				t.Fatalf("%s: answers diverge after round-trip at %d: %v vs %v", algo, i, a, b)
			}
		}

	}
}

// Sharded and Windowed containers carry the family through their own
// checkpoint formats.
func TestShardedWindowedTabulationCheckpoint(t *testing.T) {
	opts := hfOpts(repro.WithHashing(repro.HashTabulation))

	sh, err := repro.NewSharded(4, "countmin", opts...)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	r := rand.New(rand.NewSource(21))
	for u := 0; u < 20000; u++ {
		sh.Update(u%4, r.Intn(hfDim), float64(1+r.Intn(5)))
	}
	var buf bytes.Buffer
	if err := sh.Checkpoint(&buf); err != nil {
		t.Fatalf("Sharded.Checkpoint: %v", err)
	}
	sh2, err := repro.RestoreSharded(&buf)
	if err != nil {
		t.Fatalf("RestoreSharded: %v", err)
	}
	for i := 0; i < hfDim; i += 311 {
		a, err := sh.Query(i)
		if err != nil {
			t.Fatalf("Sharded.Query: %v", err)
		}
		b, err := sh2.Query(i)
		if err != nil {
			t.Fatalf("restored Sharded.Query: %v", err)
		}
		if a != b {
			t.Fatalf("sharded restore diverges at %d: %v vs %v", i, a, b)
		}
	}

	w, err := repro.NewWindowed(3, "countsketch", opts...)
	if err != nil {
		t.Fatalf("NewWindowed: %v", err)
	}
	for u := 0; u < 9000; u++ {
		if u%3000 == 0 && u > 0 {
			if err := w.Advance(1); err != nil {
				t.Fatalf("Advance: %v", err)
			}
		}
		if err := w.Update(0, r.Intn(hfDim), 1); err != nil {
			t.Fatalf("Windowed.Update: %v", err)
		}
	}
	buf.Reset()
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatalf("Windowed.Checkpoint: %v", err)
	}
	w2, err := repro.RestoreWindowed(&buf)
	if err != nil {
		t.Fatalf("RestoreWindowed: %v", err)
	}
	for i := 0; i < hfDim; i += 311 {
		a, err := w.Query(i)
		if err != nil {
			t.Fatalf("Windowed.Query: %v", err)
		}
		b, err := w2.Query(i)
		if err != nil {
			t.Fatalf("restored Windowed.Query: %v", err)
		}
		if a != b {
			t.Fatalf("windowed restore diverges at %d: %v vs %v", i, a, b)
		}
	}
}

// The monitoring fabric ships deltas between replicas built from the
// same descriptor, so a tabulation coordinator must stay bit-identical
// to a single tabulation sketch fed every update.
func TestMonitorTabulation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	streams := make([][]repro.SiteUpdate, 3)
	ref := mustNew(t, "countmin", hfOpts(repro.WithHashing(repro.HashTabulation))...)
	for p := range streams {
		for u := 0; u < 4000; u++ {
			i, d := r.Intn(hfDim), float64(1+r.Intn(5))
			streams[p] = append(streams[p], repro.SiteUpdate{I: i, Delta: d})
			ref.Update(i, d)
		}
	}
	coord, _, err := repro.Monitor("countmin", repro.MonitorConfig{}, streams, nil,
		hfOpts(repro.WithHashing(repro.HashTabulation))...)
	if err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	if h := repro.HashingOf(coord); h != repro.HashTabulation {
		t.Errorf("coordinator lost the family: %v", h)
	}
	for i := 0; i < hfDim; i += 173 {
		if a, b := ref.Query(i), coord.Query(i); a != b {
			t.Fatalf("coordinator diverges from reference at %d: %v vs %v", i, a, b)
		}
	}
}
