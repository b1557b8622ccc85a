package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sketch"
)

// Scheme selects the bias-aware scheme: the classical sketch under the
// bias estimator and the norm of the error guarantee.
type Scheme int

const (
	// L1 is ℓ1-S/R (Algorithms 1–2, Theorem 3) over a Count-Median
	// sketch.
	L1 Scheme = iota + 1
	// L2 is ℓ2-S/R (Algorithms 3–4, Theorem 4) over a Count-Sketch.
	L2
)

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	switch s {
	case L1:
		return "ℓ1-S/R"
	case L2:
		return "ℓ2-S/R"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config parameterizes a bias-aware sketch.
type Config struct {
	Scheme Scheme // L1 or L2
	N      int    // dimension of the input vector
	K      int    // sparsity/accuracy trade-off parameter of Theorems 3–4

	// Cs is the row-width constant c_s: each row has s = Cs·K buckets.
	// The paper requires c_s >= 4; defaults to 4.
	Cs int

	// Depth is d, the number of sketch rows (Θ(log n) in Theorems 3–4;
	// the paper's experiments use 9). Defaults to 9.
	Depth int

	// SampleCount is the number of rows of the sampling matrix Υ, used
	// only with EstimatorSampledMedian. Algorithm 1 uses 20·log n; the
	// paper's implementation uses s extra words instead for a more
	// stable estimate (§5.1). Defaults to 20·⌈log₂ n⌉; set explicitly
	// to mirror the paper's plots.
	SampleCount int

	// Estimator selects the bias estimator. EstimatorDefault gives the
	// paper's: sampled median for ℓ1-S/R, median buckets for ℓ2-S/R.
	// EstimatorMean gives the ℓ1-mean/ℓ2-mean heuristics of §5.4, and
	// ℓ2-S/R also accepts EstimatorSampledMedian for the ablation study.
	Estimator EstimatorKind
}

func (c Config) withDefaults() Config {
	if c.Cs == 0 {
		c.Cs = 4
	}
	if c.Depth == 0 {
		c.Depth = 9
	}
	if c.SampleCount == 0 {
		c.SampleCount = defaultSampleCount(c.N)
	}
	if c.Estimator == EstimatorDefault {
		switch c.Scheme {
		case L1:
			c.Estimator = EstimatorSampledMedian
		case L2:
			c.Estimator = EstimatorMedianBucket
		}
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	}
	if c.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", c.K)
	}
	if c.Cs < 4 {
		return fmt.Errorf("core: Cs must be at least 4 (paper requirement), got %d", c.Cs)
	}
	if c.Depth <= 0 {
		return fmt.Errorf("core: Depth must be positive, got %d", c.Depth)
	}
	if c.SampleCount <= 0 {
		return fmt.Errorf("core: SampleCount must be positive, got %d", c.SampleCount)
	}
	switch {
	case c.Scheme != L1 && c.Scheme != L2:
		return fmt.Errorf("core: unknown scheme %v", c.Scheme)
	case c.Estimator == EstimatorMean || c.Estimator == EstimatorSampledMedian,
		c.Estimator == EstimatorMedianBucket && c.Scheme == L2:
		return nil
	default:
		return fmt.Errorf("core: %v does not support the %v estimator", c.Scheme, c.Estimator)
	}
}

// SR is a bias-aware sketch: a classical linear sketch of x de-biased
// at recovery time by a streaming bias estimate β̂. Under L1 it is
// ℓ1-S/R with the ℓ∞/ℓ1 guarantee of Theorem 3,
//
//	Pr[ ‖x̂−x‖∞ ≤ C1/k · min_β Err_1^k(x−β) ] ≥ 1 − C2/n,
//
// combining d CM-matrix rows (a Count-Median sketch of x) with a
// sampling matrix Υ whose sampled values feed a running median. Under
// L2 it is ℓ2-S/R with the ℓ∞/ℓ2 guarantee of Theorem 4,
//
//	Pr[ ‖x̂−x‖∞ ≤ C1/√k · min_β Err_2^k(x−β) ] ≥ 1 − C2/n,
//
// stacking a CM-matrix row w = Π(g)x, used only for bias estimation,
// on d CS-matrix rows (a Count-Sketch of x). Its estimator sorts the
// CM buckets by average coordinate value w_i/π_i and averages the
// middle 2k — outliers contaminate at most k of them, which Lemma 6
// shows is harmless — maintaining that order incrementally with the
// Bias-Heap (Algorithms 5–6) rather than sorting at query time; see
// TestBiasHeapMatchesSort.
//
// Recovery is one formula for both schemes (Algorithms 2 and 4):
//
//	x̂_i = median_t( r_t(i)·(y_t[h_t(i)] − β̂·w_t[h_t(i)]) ) + β̂,
//
// with r ≡ 1 and w = π for ℓ1, the Count-Sketch signs r_t and w = ψ
// for ℓ2 (see sketch.Debiasable). Every point query is O(d) after
// O(log) work per update — the streaming implementation of §4.4, with
// no post-processing pass. The whole sketch is linear, so SR supports
// MergeFrom and works in the distributed model unchanged.
type SR struct {
	cfg Config
	sk  sketch.Debiasable
	est Estimator
	buf []float64 // per-row de-biased values, reused across Query calls
}

// New creates a bias-aware sketch, drawing all randomness from r: the
// sketch rows first, then the bias estimator. An invalid configuration
// panics.
func New(cfg Config, r *rand.Rand) *SR {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	scfg := sketch.Config{N: cfg.N, Rows: cfg.Cs * cfg.K, Depth: cfg.Depth}
	var sk sketch.Debiasable
	var err error
	if cfg.Scheme == L1 {
		sk, err = sketch.NewCountMedian(scfg, r)
	} else {
		sk, err = sketch.NewCountSketch(scfg, r)
	}
	if err != nil {
		panic(err)
	}
	s := &SR{cfg: cfg, sk: sk, buf: make([]float64, cfg.Depth)}
	switch cfg.Estimator {
	case EstimatorSampledMedian:
		s.est = newSampleMedianEstimator(cfg.N, cfg.SampleCount, r)
	case EstimatorMedianBucket:
		s.est = newMedianBucketEstimator(cfg.N, cfg.Cs*cfg.K, cfg.K, r)
	case EstimatorMean:
		s.est = newMeanEstimator(cfg.N)
	}
	return s
}

// Update applies x[i] += delta to the sketch rows and the bias
// estimator (Algorithm 1 lines 2–3, Algorithm 6 lines 4–6).
//
//sketch:hotpath
func (s *SR) Update(i int, delta float64) {
	s.sk.Update(i, delta)
	s.est.Observe(i, delta)
}

// UpdateBatch applies the batch to the sketch rows row-major (one
// hash-coefficient load per row, cache-hot rows) and replays it
// element-ordered into the bias estimator, leaving exactly the state
// of the element-wise Update loop.
//
//sketch:hotpath
func (s *SR) UpdateBatch(idx []int, deltas []float64) {
	s.sk.UpdateBatch(idx, deltas)
	for j, i := range idx {
		s.est.Observe(i, deltas[j])
	}
}

// Bias returns the current bias estimate β̂ (Algorithm 2 line 1,
// Algorithm 4 line 2 / Algorithm 5 line 19).
func (s *SR) Bias() float64 { return s.est.Bias() }

// Query estimates x[i] by de-biased recovery restricted to coordinate
// i (Algorithm 2 lines 2–5, Algorithm 4 lines 3–6 / Algorithm 6 lines
// 7–10).
//
//sketch:hotpath
func (s *SR) Query(i int) float64 {
	beta := s.est.Bias()
	s.sk.DebiasedPoint(i, beta, s.buf)
	return median(s.buf) + beta
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j
// — de-biased recovery, row-major: each row's hash (and sign)
// coefficients, counters, and column weights load once for the whole
// batch, then the median and the β̂ add-back run per element over the
// gathered, cache-hot columns. β̂ is read once up front; queries never
// change estimator state, so this matches the per-query Bias() calls
// of the element-wise loop and results are bit-identical to it. The
// whole batch is validated before out is written, and scratch is
// borrowed from the shared pool per call, so concurrent QueryBatch
// calls on a quiescent sketch (e.g. a Sharded snapshot replica) are
// safe.
//
//sketch:hotpath
func (s *SR) QueryBatch(idx []int, out []float64) {
	s.sk.CheckIndexBatch(idx, out)
	sketch.QueryBatchMedian(s.cfg.Depth, idx, out, s.est.Bias(), s)
}

// GatherRow implements sketch.BatchRecovery: row t's de-biased bucket
// values for the tile, with β̂ read from sc.Bias. Used by
// sketch.QueryBatchMedian, not meant for direct callers.
//
//sketch:hotpath
func (s *SR) GatherRow(t int, tile []int, o []float64, sc *sketch.QScratch) {
	s.sk.DebiasedRow(t, tile, sc.Bias, o, sc)
}

// Combine implements sketch.BatchRecovery: the row median plus the β̂
// add-back of Algorithm 2 line 5 / Algorithm 4 line 6.
//
//sketch:hotpath
func (s *SR) Combine(vals []float64, sc *sketch.QScratch) float64 {
	return median(vals) + sc.Bias
}

// PrepareRead precomputes the lazily built, data-independent cache a
// query touches: the per-row column weights (π or ψ). The cache is
// concurrency-safe to build on demand; warming it up front just keeps
// the first reads of a published replica from paying the O(n·d)
// computation.
func (s *SR) PrepareRead() { s.sk.PrepareWeights() }

// AdoptReadCaches copies the seed-determined query caches (π or ψ)
// from a previously prepared replica of the same configuration —
// "common knowledge" in the paper's sense — so successive snapshot
// replicas skip the O(n·d) recompute. A src of another type or shape
// is ignored.
func (s *SR) AdoptReadCaches(src any) {
	if o, ok := src.(*SR); ok {
		s.sk.ShareWeights(o.sk)
	}
}

// Dim returns n.
func (s *SR) Dim() int { return s.cfg.N }

// Words returns the sketch size in 64-bit words: the d·s counters plus
// the estimator's words (sampled values or the s-bucket bias row). π
// and ψ are hash-derived common knowledge, like the hash seeds
// themselves.
func (s *SR) Words() int { return s.sk.Words() + s.est.Words() }

// Config returns the (defaulted) configuration in use.
func (s *SR) Config() Config { return s.cfg }

// MergeFrom adds another SR built with the same configuration and
// random seed, exploiting linearity of both the sketch rows and the
// estimator state (the distributed model of §1).
func (s *SR) MergeFrom(other sketch.Linear) error {
	o, ok := other.(*SR)
	if !ok || o.cfg != s.cfg {
		return sketch.ErrIncompatible
	}
	if err := s.sk.MergeFrom(o.sk); err != nil {
		return err
	}
	return s.est.Merge(o.est)
}

// MarshalState serializes the sketch cells and the bias-estimator
// state as len(cells) | cells | estimator floats, for internal/codec
// to ship sketches between processes. Only data-dependent state
// travels: hash functions, sampled positions, and column weights are
// shared randomness that both ends reconstruct from the configuration
// and seed (exactly the paper's distributed protocol, §5.5 footnote 4).
func (s *SR) MarshalState() ([]byte, error) {
	cells, err := s.sk.Marshal()
	if err != nil {
		return nil, err
	}
	est := s.est.State()
	out := make([]byte, 8+len(cells)+8*len(est))
	binary.LittleEndian.PutUint64(out, uint64(len(cells)))
	copy(out[8:], cells)
	off := 8 + len(cells)
	for _, v := range est {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
		off += 8
	}
	return out, nil
}

// UnmarshalState restores state captured by MarshalState on a sketch
// built with the same configuration and seed.
func (s *SR) UnmarshalState(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("core: state too short (%d bytes)", len(b))
	}
	cl := binary.LittleEndian.Uint64(b)
	if uint64(len(b)-8) < cl {
		return fmt.Errorf("core: cell payload truncated")
	}
	rest := b[8+cl:]
	if len(rest)%8 != 0 {
		return fmt.Errorf("core: estimator payload not a float64 multiple")
	}
	est := make([]float64, len(rest)/8)
	for i := range est {
		est[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	if err := s.sk.Unmarshal(b[8 : 8+cl]); err != nil {
		return err
	}
	return s.est.SetState(est)
}

// median returns the Table 1 median of buf, reordering it in place. It
// delegates to the sketch package's median so the recovery combine
// step shares its branchless sorting networks.
//
//sketch:hotpath
func median(buf []float64) float64 { return sketch.Median(buf) }
