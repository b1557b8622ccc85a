package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro"
)

// Workload shape shared by every workload: §5.1's n and s, the
// default depth 9 and pairwise hashing.
const (
	dim        = 1_000_000
	words      = 4096
	frameLen   = 512  // elements per wire-v2 ingest frame
	ringFrames = 256  // distinct frames per (sketch, slot) stream, cycled
	queryLen   = 64   // points per query batch
	hotKeys    = 4096 // Zipf-ranked outlier keys
	probeLen   = 256  // fixed probe set for the correctness checks
)

// gen derives every input of a run from the --seed argument. Only the
// benchmark sees the seed: sketchd and Monitor receive the generated
// frames, URLs and streams.
type gen struct{ seed int64 }

// rng returns a generator private to one named input stream, so adding
// a stream never shifts the values of another.
func (g gen) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", g.seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// keys draws coordinates from a biased crowd with planted outliers, in
// the style of §5.1: three quarters of the draws hit a uniformly random
// coordinate with a small positive delta (the crowd, whose common level
// is the bias β), one quarter hits a Zipf-ranked hot key with a large
// delta (the outliers). Hot ranks are scattered over [0, dim) by a
// seeded affine map, so outliers are not clustered at low indexes.
type keys struct {
	r    *rand.Rand
	zipf *rand.Zipf
	a, b int
}

func (g gen) keys(stream string) *keys {
	r := g.rng(stream)
	hr := g.rng("hot-map")
	// a odd and not a multiple of 5 is a unit mod 10^6, so the map is a
	// bijection on [0, dim).
	a := 2*hr.Intn(dim/2) + 1
	for a%5 == 0 {
		a += 2
	}
	return &keys{r: r, zipf: rand.NewZipf(r, 1.2, 1, hotKeys-1), a: a, b: hr.Intn(dim)}
}

func (k *keys) hot(rank int) int { return int((int64(rank)*int64(k.a) + int64(k.b)) % dim) }

// next returns one (index, delta) draw. Deltas are small integers, so
// every sum the sketches form is exact in float64 and answers compare
// bit for bit whatever the summation order.
func (k *keys) next() (int, float64) {
	if k.r.Intn(4) == 0 {
		d := math.Max(1, math.Round(12+4*k.r.NormFloat64()))
		return k.hot(int(k.zipf.Uint64())), d
	}
	d := math.Max(1, math.Round(2+k.r.NormFloat64()))
	return k.r.Intn(dim), d
}

// frames returns the ring of encoded wire-v2 batch frames for one
// ingest stream.
func (g gen) frames(stream string) ([][]byte, error) {
	k := g.keys("frames/" + stream)
	idx := make([]int, frameLen)
	deltas := make([]float64, frameLen)
	ring := make([][]byte, ringFrames)
	for f := range ring {
		for j := range idx {
			idx[j], deltas[j] = k.next()
		}
		var buf bytes.Buffer
		if err := repro.EncodeBatch(&buf, idx, deltas); err != nil {
			return nil, fmt.Errorf("encode frame: %w", err)
		}
		ring[f] = buf.Bytes()
	}
	return ring, nil
}

// queries returns count query batches drawn from the ingest key
// distribution.
func (g gen) queries(stream string, count int) [][]int {
	k := g.keys("queries/" + stream)
	out := make([][]int, count)
	for q := range out {
		out[q] = make([]int, queryLen)
		for j := range out[q] {
			out[q][j], _ = k.next()
		}
	}
	return out
}

// probes is the fixed probe set of the correctness checks: the hottest
// outlier keys and as many crowd keys.
func (g gen) probes() []int {
	k := g.keys("probes")
	out := make([]int, 0, probeLen)
	for rank := 0; rank < probeLen/2; rank++ {
		out = append(out, k.hot(rank))
	}
	for len(out) < probeLen {
		out = append(out, k.r.Intn(dim))
	}
	return out
}

// siteStreams returns the monitor workload's local streams. Site sizes
// are Zipf-skewed too: site p holds rounds/(p+1) synchronization
// batches (at least a quarter of one), so a few large sites keep the
// tree busy while the long tail goes quiet after the first rounds.
func (g gen) siteStreams(sites, syncEvery, rounds int) [][]repro.SiteUpdate {
	out := make([][]repro.SiteUpdate, sites)
	for p := range out {
		k := g.keys(fmt.Sprintf("site/%d", p))
		n := max(syncEvery*rounds/(p+1), syncEvery/4)
		us := make([]repro.SiteUpdate, n)
		for j := range us {
			us[j].I, us[j].Delta = k.next()
		}
		out[p] = us
	}
	return out
}

// digest hashes a sample of every input kind the seed drives; the
// self-test holds it equal across two derivations from one seed and
// different across seeds.
func (g gen) digest() ([32]byte, error) {
	h := sha256.New()
	ring, err := g.frames("digest")
	if err != nil {
		return [32]byte{}, err
	}
	for _, f := range ring[:8] {
		h.Write(f)
	}
	var w [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	for _, q := range g.queries("digest", 4) {
		for _, i := range q {
			put(i)
		}
	}
	for _, i := range g.probes() {
		put(i)
	}
	for _, s := range g.siteStreams(4, 64, 2) {
		for _, u := range s {
			put(u.I)
			put(int(u.Delta))
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// selfTest checks that the seed alone determines the inputs: the same
// seed gives byte-identical inputs, the next seed different ones.
func selfTest(seed int64) error {
	a, err := gen{seed}.digest()
	if err != nil {
		return err
	}
	b, err := gen{seed}.digest()
	if err != nil {
		return err
	}
	c, err := gen{seed + 1}.digest()
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("seed %d gave two different input sets", seed)
	}
	if a == c {
		return fmt.Errorf("seeds %d and %d gave identical inputs", seed, seed+1)
	}
	return nil
}
