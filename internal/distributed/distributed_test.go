package distributed

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func mkStreams(sites, perSite, n int, seed int64) ([][]stream.Update, []float64) {
	r := rand.New(rand.NewSource(seed))
	streams := make([][]stream.Update, sites)
	global := make([]float64, n)
	for p := range streams {
		us := make([]stream.Update, perSite)
		for u := range us {
			us[u] = stream.Update{I: r.Intn(n), Delta: float64(1 + r.Intn(4))}
			global[us[u].I] += us[u].Delta
		}
		streams[p] = us
	}
	return streams, global
}

// starConfig is the classic star topology expressed as a tree: every
// site a direct child of the coordinator, one shard per site, and
// every round shipping every site's full sketch.
func starConfig(sites, syncEvery int) TreeConfig {
	return TreeConfig{Sites: sites, SyncEvery: syncEvery, FanIn: max(sites, 2), Shards: 1, Mode: ShipFull}
}

// Distributed recovery must equal centralized sketching of the global
// vector, for the classical and the bias-aware sketches — with every
// site→coordinator hop going through encoded bytes, and each round
// costing the paper's sites × sketch size.
func TestDistributedEqualsCentralized(t *testing.T) {
	const n, sites, perSite = 3000, 5, 2000
	streams, global := mkStreams(sites, perSite, n, 2)
	central := func(t *testing.T, desc codec.Desc) sketch.Sketch {
		t.Helper()
		sk, err := registry.SafeNew(desc.Algo, desc.Shape())
		if err != nil {
			t.Fatal(err)
		}
		if err := sketch.SketchVector(sk, global); err != nil {
			t.Fatal(err)
		}
		return sk
	}

	for _, tc := range []struct {
		name string
		desc codec.Desc
	}{
		{"countsketch", codec.Desc{Algo: "countsketch", N: n, S: 128, D: 8, Seed: 3}},
		{"l2sr", codec.Desc{Algo: "l2sr", N: n, S: 128, D: 2, Seed: 4}},
		{"l1sr", codec.Desc{Algo: "l1sr", N: n, S: 128, D: 2, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			merged, st, err := MonitorTree(starConfig(sites, perSite), tc.desc, streams, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := central(t, tc.desc)
			for i := 0; i < n; i += 61 {
				if a, b := c.Query(i), merged.Query(i); math.Abs(a-b) > 1e-6 {
					t.Fatalf("query %d: centralized %f distributed %f", i, a, b)
				}
			}
			if st.Rounds != 1 || st.CommWords != sites*c.Words() {
				t.Errorf("bad stats %+v", st)
			}
			if st.CommBytes <= 0 {
				t.Errorf("no bytes shipped: %+v", st)
			}
			if c.Words() >= n {
				t.Errorf("sketching should compress: %d words for dimension %d", c.Words(), n)
			}
		})
	}

	t.Run("l2sr bias survives shipping", func(t *testing.T) {
		desc := codec.Desc{Algo: "l2sr", N: n, S: 128, D: 2, Seed: 4}
		merged, _, err := MonitorTree(starConfig(sites, perSite), desc, streams, nil)
		if err != nil {
			t.Fatal(err)
		}
		cb := central(t, desc).(interface{ Bias() float64 }).Bias()
		mb := merged.(interface{ Bias() float64 }).Bias()
		if math.Abs(cb-mb) > 1e-9 {
			t.Fatalf("bias: centralized %f distributed %f", cb, mb)
		}
	})
}

func TestMonitorMatchesCentralized(t *testing.T) {
	const n, sites, perSite = 4000, 4, 6000
	streams, global := mkStreams(sites, perSite, n, 1)
	desc := codec.Desc{Algo: "l2sr", N: n, S: 128, D: 1, Seed: 2}

	rounds := 0
	final, st, err := MonitorTree(starConfig(sites, 1000),
		desc, streams, func(round int, _ sketch.Sketch) { rounds = round })
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesApplied != sites*perSite {
		t.Errorf("applied %d updates, want %d", st.UpdatesApplied, sites*perSite)
	}
	if rounds != st.Rounds || st.Rounds != 6 {
		t.Errorf("rounds = %d (callback %d), want 6", st.Rounds, rounds)
	}
	perSketch := final.Words()
	if st.CommWords != st.Rounds*sites*perSketch {
		t.Errorf("CommWords = %d, want %d", st.CommWords, st.Rounds*sites*perSketch)
	}
	if st.CommBytes <= 0 {
		t.Errorf("no bytes shipped: %+v", st)
	}

	central, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range global {
		if v != 0 {
			central.Update(i, v)
		}
	}
	for i := 0; i < n; i += 61 {
		if a, b := central.Query(i), final.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: central %f monitored %f", i, a, b)
		}
	}
}

// Mid-run coordinator states must track the global prefix: error
// against the running exact vector should stay bounded at every round,
// on the star and on a sharded delta-shipping tree alike.
func TestMonitorIntermediateRounds(t *testing.T) {
	const n, sites, perSite = 2000, 3, 3000
	streams, _ := mkStreams(sites, perSite, n, 3)
	desc := codec.Desc{Algo: "l2sr", N: n, S: 256, D: 1, Seed: 4}

	// Track the exact prefix as rounds complete.
	exactAt := func(round int) []float64 {
		x := make([]float64, n)
		for p := 0; p < sites; p++ {
			upTo := round * 1000
			if upTo > len(streams[p]) {
				upTo = len(streams[p])
			}
			for _, u := range streams[p][:upTo] {
				x[u.I] += u.Delta
			}
		}
		return x
	}

	for name, cfg := range map[string]TreeConfig{
		"star": starConfig(sites, 1000),
		"tree": {Sites: sites, SyncEvery: 1000, FanIn: 2, Shards: 4, Mode: ShipDelta},
	} {
		rounds := 0
		_, _, err := MonitorTree(cfg, desc, streams,
			func(round int, coord sketch.Sketch) {
				rounds++
				x := exactAt(round)
				var worst float64
				for i := 0; i < n; i += 37 {
					if e := math.Abs(coord.Query(i) - x[i]); e > worst {
						worst = e
					}
				}
				// Bucket noise at k=64, s=256: sqrt(2000/256)·σ ≈ small;
				// generous cap to keep the test robust.
				if worst > 50 {
					t.Errorf("%s round %d: worst tracked error %f", name, round, worst)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if rounds != 3 {
			t.Errorf("%s: onSync ran %d times, want 3", name, rounds)
		}
	}
}

// Non-linear algorithms cannot participate in the distributed model at
// all — the site sketches have no meaningful sum — and exact would
// ship the raw vector, defeating the sketch. Both are rejected up
// front with ErrNotShippable, before any site ingests an update.
func TestRunRejectsUnshippableAlgorithms(t *testing.T) {
	streams := [][]stream.Update{{{I: 1, Delta: 1}}}
	for _, algo := range []string{"cmcu", "cmlcu", "exact"} {
		desc := codec.Desc{Algo: algo, N: 10, S: 8, D: 2, Seed: 1}
		if _, _, err := MonitorTree(starConfig(1, 1), desc, streams, nil); !errors.Is(err, ErrNotShippable) {
			t.Errorf("%s: MonitorTree should refuse with ErrNotShippable, got %v", algo, err)
		}
	}
}

func TestMonitorErrors(t *testing.T) {
	desc := codec.Desc{Algo: "l2sr", N: 100, S: 16, D: 1, Seed: 5}
	if _, _, err := MonitorTree(starConfig(0, 1), desc, nil, nil); err == nil {
		t.Error("bad config should fail")
	}
	if _, _, err := MonitorTree(starConfig(2, 1), desc,
		make([][]stream.Update, 3), nil); err == nil {
		t.Error("stream/site mismatch should fail")
	}
	streams := [][]stream.Update{{{I: 1, Delta: 1}}, {{I: 2, Delta: 1}}}
	for _, algo := range []string{"cmcu", "exact", "no-such-algo"} {
		bad := desc
		bad.Algo = algo
		if _, _, err := MonitorTree(starConfig(2, 1), bad, streams, nil); err == nil {
			t.Errorf("%s: MonitorTree should refuse", algo)
		}
	}
}

func TestMonitorEmptyStreams(t *testing.T) {
	desc := codec.Desc{Algo: "l2sr", N: 100, S: 16, D: 1, Seed: 6}
	final, st, err := MonitorTree(starConfig(2, 10), desc,
		[][]stream.Update{{}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.UpdatesApplied != 0 {
		t.Errorf("empty run stats %+v", st)
	}
	if final.Query(0) != 0 {
		t.Error("empty coordinator should answer 0")
	}
}

func TestMonitorUnevenStreams(t *testing.T) {
	// One site has far more data; rounds continue until all drained.
	const n = 500
	desc := codec.Desc{Algo: "l2sr", N: n, S: 32, D: 1, Seed: 7}
	streams := [][]stream.Update{
		make([]stream.Update, 2500),
		make([]stream.Update, 100),
	}
	for p := range streams {
		for u := range streams[p] {
			streams[p][u] = stream.Update{I: (p*7 + u) % n, Delta: 1}
		}
	}
	mass := func(sk sketch.Sketch) (total float64) {
		for i := 0; i < n; i++ {
			total += sk.Query(i)
		}
		return total
	}
	// The short site drains in round 1; the long one keeps the run
	// going alone, and every round's coordinator holds the prefix mass.
	wantMass := []float64{1100, 2100, 2600}
	final, st, err := MonitorTree(starConfig(2, 1000), desc, streams, func(round int, coord sketch.Sketch) {
		if round > len(wantMass) {
			t.Errorf("unexpected round %d", round)
			return
		}
		if got := mass(coord); math.Abs(got-wantMass[round-1]) > 50 {
			t.Errorf("round %d: recovered mass %f, want ≈%v", round, got, wantMass[round-1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesApplied != 2600 {
		t.Errorf("applied %d, want 2600", st.UpdatesApplied)
	}
	if st.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", st.Rounds)
	}
	for i, want := range []int{2, 1, 1} {
		if i < len(st.PerRound) && st.PerRound[i].ActiveSites != want {
			t.Errorf("round %d: %d active sites, want %d", i+1, st.PerRound[i].ActiveSites, want)
		}
	}
	if total := mass(final); math.Abs(total-2600) > 50 {
		t.Errorf("total recovered mass %f, want ≈2600", total)
	}
}

// The zero-round path (every stream empty) must hand back a usable
// empty coordinator, never a nil one with a nil error — that would
// move the crash to the caller's first Query.
func TestMonitorEmptyStreamsCoordinatorNeverNil(t *testing.T) {
	desc := codec.Desc{Algo: "countmin", N: 100, S: 16, D: 2, Seed: 1}
	coord, st, err := MonitorTree(starConfig(2, 10),
		desc, make([][]stream.Update, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.UpdatesApplied != 0 || st.CommBytes != 0 {
		t.Fatalf("empty streams ran work: %+v", st)
	}
	if coord == nil {
		t.Fatal("zero-round path returned a nil coordinator with a nil error")
	}
	if got := coord.Query(3); got != 0 {
		t.Fatalf("empty coordinator Query(3) = %v, want 0", got)
	}
}
