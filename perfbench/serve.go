package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// The ingest and mixed workloads serve one sharded l2sr and one
// sharded l1sr sketch, two shards each.
var servedSpecs = []spec{
	{Name: "l2", Kind: "sharded", Algo: "l2sr", Dim: dim, Words: words, Shards: 2},
	{Name: "l1", Kind: "sharded", Algo: "l1sr", Dim: dim, Words: words, Shards: 2},
}

const (
	servedSetups = 9  // set-ups per run; setup_s is their median
	preloadDepth = 32 // frames per (sketch, slot) preloaded on mixed
	topkEvery    = 16 // every 16th mixed read is a top-k
	topkK        = 32
	queryRing    = 512 // distinct query batches per sketch, cycled
)

// stream is one (sketch, slot) ingest stream: its frame ring, the next
// sequence number to send, and the sequence numbers the server
// acknowledged, in the order it applied them. Only the slot's own
// client goroutine touches it.
type stream struct {
	ring  [][]byte
	next  int
	acked []int
	reqs  []int64 // trace request ID of each ack, traced runs only
}

func (s *stream) frame(seq int) []byte { return s.ring[seq%len(s.ring)] }

// served is one booted sketchd with the served sketches created.
type served struct {
	proc    *sketchd
	streams [][]*stream // [sketch][slot]
}

// bootServed execs sketchd, creates the served sketches and, when
// preload is set, ingests preloadDepth frames on every stream through
// two connections. It returns once the server is ready.
func (r *run) bootServed(rings [][][][]byte, preload bool) (*served, error) {
	p, err := startSketchd(r.sketchd, "")
	if err != nil {
		return nil, err
	}
	c := newClient(p.base, r.led)
	for _, s := range servedSpecs {
		if !c.create(s) {
			p.kill()
			return nil, fmt.Errorf("create %s: %s", s.Name, r.led)
		}
	}
	sv := &served{proc: p, streams: make([][]*stream, len(servedSpecs))}
	for k := range servedSpecs {
		for slot := 0; slot < 2; slot++ {
			sv.streams[k] = append(sv.streams[k], &stream{ring: rings[k][slot]})
		}
	}
	if preload {
		var wg sync.WaitGroup
		for slot := 0; slot < 2; slot++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := 0; f < preloadDepth*len(servedSpecs); f++ {
					k := f % len(servedSpecs)
					sv.send(c, k, slot, 0)
				}
			}()
		}
		wg.Wait()
	}
	return sv, nil
}

// send posts the next frame of stream (k, slot) and books the ack
// under the request's trace ID.
func (sv *served) send(c *client, k, slot int, req int64) ([]byte, bool) {
	st := sv.streams[k][slot]
	seq := st.next
	st.next++
	f := st.frame(seq)
	if !c.ingest(servedSpecs[k].Name, slot, f, frameLen) {
		return f, false
	}
	st.acked = append(st.acked, seq)
	st.reqs = append(st.reqs, req)
	return f, true
}

// replay feeds the twins every acknowledged frame not yet applied, in
// per-slot order, tracing each under the request that sent it.
func (sv *served) replay(tr *tracer, tw *twins, from [][]int) error {
	for k := range servedSpecs {
		for slot, st := range sv.streams[k] {
			for i := from[k][slot]; i < len(st.acked); i++ {
				if err := tw.apply(tr, st.reqs[i], k, slot, st.frame(st.acked[i])); err != nil {
					return err
				}
			}
			from[k][slot] = len(st.acked)
		}
	}
	return nil
}

// twins mirror the served sketches in process: a Sharded of the same
// spec fed the acknowledged frames in per-slot order must answer every
// probe bit-identically to the server. In a traced run every frame
// also goes to a bare core sketch per stream, and each layer's time is
// recorded under the request that sent the frame, so every request can
// be split into its layers.
type twins struct {
	sh   []*repro.Sharded
	core [][]sketch.Sketch // [sketch][slot]
}

func newTwins() (*twins, error) {
	t := &twins{}
	for _, s := range servedSpecs {
		sh, err := repro.NewSharded(s.Shards, s.Algo, repro.WithDim(s.Dim), repro.WithWords(s.Words))
		if err != nil {
			return nil, err
		}
		t.sh = append(t.sh, sh)
		e, _ := registry.Lookup(s.Algo)
		shape := registry.Shape{N: s.Dim, S: s.Words, D: repro.DefaultDepth, Seed: repro.DefaultSeed}
		t.core = append(t.core, []sketch.Sketch{e.MustNew(shape), e.MustNew(shape)})
	}
	return t, nil
}

// apply decodes one acknowledged frame and feeds it to the twin,
// recording a span per layer when traced.
func (t *twins) apply(tr *tracer, req int64, k, slot int, frame []byte) error {
	algo := servedSpecs[k].Algo
	t0 := time.Now()
	idx, deltas, err := repro.DecodeBatch(bytes.NewReader(frame), dim)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := t.sh[k].UpdateBatch(slot, idx, deltas); err != nil {
		return err
	}
	t2 := time.Now()
	if tr == nil {
		return nil
	}
	sketch.UpdateBatch(t.core[k][slot], idx, deltas)
	t3 := time.Now()
	tr.add("codec.decode_batch", 0, req, t0, t1)
	tr.add("concurrent.update_batch."+algo, 0, req, t1, t2)
	tr.add("core.update_batch."+algo, 0, req, t2, t3)
	return nil
}

// check compares the server's answers on the probe set with the
// twin's, bit for bit; every probe batch is one check.
func (r *run) checkServed(c *client, t *twins) {
	probes := r.gen.probes()
	for k, s := range servedSpecs {
		want := make([]float64, queryLen)
		for lo := 0; lo < len(probes); lo += queryLen {
			idx := probes[lo : lo+queryLen]
			got, ok := c.query(queryPath(s.Name, idx), queryLen)
			if !ok {
				continue
			}
			if err := t.sh[k].QueryBatch(idx, want); err != nil {
				r.led.check(false, "twin %s: %v", s.Name, err)
				continue
			}
			r.led.check(sameBits(got, want), "%s probes %d..%d differ from the twin", s.Name, lo, lo+queryLen-1)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runServed drives the ingest workload (mixed=false: two producers,
// one slot each) or the mixed workload (one producer on slot 0, one
// dashboard reading back to back).
func (r *run) runServed(mixed bool) (*outcome, error) {
	// The load generator keeps to one core; sketchd has the box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rings := make([][][][]byte, len(servedSpecs))
	for k, s := range servedSpecs {
		for slot := 0; slot < 2; slot++ {
			ring, err := r.gen.frames(fmt.Sprintf("%s/slot%d", s.Name, slot))
			if err != nil {
				return nil, err
			}
			rings[k] = append(rings[k], ring)
		}
	}
	paths := make([][]string, len(servedSpecs))
	batches := r.gen.queries("mixed", queryRing)
	for k, s := range servedSpecs {
		for _, b := range batches {
			paths[k] = append(paths[k], queryPath(s.Name, b))
		}
	}

	var setups samples
	var sv *served
	for i := 0; i < servedSetups; i++ {
		t0 := time.Now()
		b, err := r.bootServed(rings, mixed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < servedSetups-1 {
			if err := b.proc.stop(); err != nil {
				return nil, fmt.Errorf("stop sketchd: %w", err)
			}
			continue
		}
		sv = b
	}
	defer sv.proc.kill()

	tw, err := newTwins()
	if err != nil {
		return nil, err
	}
	// The twins catch up after the run, off the measured path, except
	// in a traced mixed run: there the dashboard's twin reads need the
	// writes as they are acknowledged, so the producer feeds the twins
	// live, starting level with the preload.
	applied := [][]int{{0, 0}, {0, 0}}
	live := mixed && r.tr != nil
	if live {
		if err := sv.replay(nil, tw, applied); err != nil {
			return nil, err
		}
	}

	var (
		mu       sync.Mutex
		ingestMS samples
		ackAt    []time.Duration
		elems    int
		queryMS  = make([]samples, len(servedSpecs))
		topkMS   samples
		stale    int
		reads    int
	)
	c := newClient(sv.proc.base, r.led)
	cpu0, err := sv.proc.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(r.seconds)
	var wg sync.WaitGroup
	producers := []int{0, 1}
	if mixed {
		producers = producers[:1]
	}
	for _, slot := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat samples
			var at []time.Duration
			n := 0
			for j := 0; time.Now().Before(deadline); j++ {
				k := j % len(servedSpecs)
				req := r.tr.req()
				t0 := time.Now()
				f, ok := sv.send(c, k, slot, req)
				t1 := time.Now()
				lat = append(lat, ms(t1.Sub(t0)))
				if !ok {
					continue
				}
				n += frameLen
				at = append(at, t1.Sub(start))
				r.tr.add("server.ingest", 0, req, t0, t1)
				if live {
					if err := tw.apply(r.tr, req, k, slot, f); err != nil {
						r.led.check(false, "twin ingest: %v", err)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ingestMS = append(ingestMS, lat...)
			elems += n
			ackAt = append(ackAt, at...)
		}()
	}
	if mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, queryLen)
			for j := 0; time.Now().Before(deadline); j++ {
				if j%topkEvery == topkEvery-1 {
					k := (j / topkEvery) % len(servedSpecs)
					t0 := time.Now()
					if c.topk(servedSpecs[k].Name, topkK) {
						topkMS = append(topkMS, ms(time.Since(t0)))
					}
					continue
				}
				k := j % len(servedSpecs)
				q := (j / len(servedSpecs)) % queryRing
				req := r.tr.req()
				t0 := time.Now()
				_, ok := c.query(paths[k][q], queryLen)
				t1 := time.Now()
				if !ok {
					continue
				}
				queryMS[k] = append(queryMS[k], ms(t1.Sub(t0)))
				if r.tr == nil {
					continue
				}
				r.tr.add("server.query", 0, req, t0, t1)
				sn, err := tw.sh[k].Snapshot()
				if err != nil {
					r.led.check(false, "twin snapshot: %v", err)
					continue
				}
				reads++
				if sn.Stale() {
					stale++
				}
				t2 := time.Now()
				sn, err = tw.sh[k].Refresh()
				t3 := time.Now()
				if err == nil {
					err = sn.QueryBatch(batches[q], out)
				}
				if err != nil {
					r.led.check(false, "twin query: %v", err)
					continue
				}
				r.tr.add("concurrent.refresh."+servedSpecs[k].Algo, 0, req, t2, t3)
				r.tr.add("sketch.query_batch."+servedSpecs[k].Algo, 0, req, t3, time.Now())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu1, err := sv.proc.cpuSeconds()
	if err != nil {
		return nil, err
	}

	rss, err := sv.proc.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !live {
		if err := sv.replay(r.tr, tw, applied); err != nil {
			return nil, err
		}
	}
	r.checkServed(c, tw)
	if err := sv.proc.stop(); err != nil {
		return nil, fmt.Errorf("stop sketchd: %w", err)
	}

	o := newOutcome()
	o.e2e["setup_s"] = setups.median()
	rate := windowRates(ackAt, elapsed)
	o.e2e["throughput_per_s"] = rate.median()
	o.e2e["peak_rss_mb"] = rss
	o.linef("setup_s = %.4f s (median of %d set-ups)", setups.median(), len(setups))
	o.linef("ingest_elems_per_s = %.0f 1/s (median of %d one-second windows; %d elements in %.2f s)",
		rate.median(), len(rate), elems, elapsed.Seconds())
	o.linef("%s", ingestMS.describe("ingest"))
	o.linef("sketchd_cpu_ns_per_elem = %.1f ns (sketchd user+system CPU over the run, per element ingested)",
		(cpu1-cpu0)*1e9/float64(elems))
	if mixed {
		var all samples
		for k, s := range servedSpecs {
			all = append(all, queryMS[k]...)
			o.linef("%s [%s]", queryMS[k].describe("query"), s.Algo)
		}
		o.linef("%s [both sketches; bimodal, see per-sketch lines]", all.describe("query"))
		o.linef("topk_p50_ms = %.4f ms (n=%d)", topkMS.median(), len(topkMS))
		o.e2e["latency_ms"] = queryMS[0].median()
	} else {
		o.e2e["latency_ms"] = ingestMS.median()
	}
	o.linef("server_rss_mb = %.1f MB", rss)

	if r.tr != nil {
		o.layer["server.self_us.ingest"] = 1000 * r.tr.lessTwin("server.ingest",
			"codec.decode_batch", "concurrent.update_batch.l2sr", "concurrent.update_batch.l1sr").median()
		o.layer["codec.decode_batch_ns_per_elem"] = perElemNS(r.tr.durations("codec.decode_batch"))
		for _, s := range servedSpecs {
			conc := perElemNS(r.tr.durations("concurrent.update_batch." + s.Algo))
			o.layer["concurrent.update_batch_ns_per_elem."+s.Algo] = conc
			if s.Algo == "l2sr" {
				o.layer["concurrent.lock_ns_per_elem.l2sr"] = conc - perElemNS(r.tr.durations("core.update_batch.l2sr"))
			}
		}
		if mixed {
			o.layer["server.self_us.query"] = 1000 * r.tr.lessTwin("server.query",
				"concurrent.refresh.l2sr", "concurrent.refresh.l1sr",
				"sketch.query_batch.l2sr", "sketch.query_batch.l1sr").median()
			for _, s := range servedSpecs {
				o.layer["concurrent.refresh_ms."+s.Algo] = r.tr.durations("concurrent.refresh." + s.Algo).median()
			}
			o.layer["concurrent.stale_read_ratio"] = float64(stale) / float64(max(reads, 1))
		}
	}
	return o, nil
}

// perElemNS turns per-frame milliseconds into a median nanoseconds per
// element.
func perElemNS(s samples) float64 { return s.median() * 1e6 / frameLen }

// windowRates returns the elements acknowledged in each whole second
// of the run; a trailing partial second is dropped.
func windowRates(at []time.Duration, elapsed time.Duration) samples {
	out := make(samples, int(elapsed/time.Second))
	for _, a := range at {
		if w := int(a / time.Second); w < len(out) {
			out[w] += frameLen
		}
	}
	return out
}
