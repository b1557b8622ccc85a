package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/hashing"
	"repro/internal/heavyhitter"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, named after its module.
// A traced run reports all of them; a layer the workload leaves idle
// reads 0 (the hashing, core and sketch probes run on every workload).
var layerMetrics = func() []layerMetric {
	m := []layerMetric{
		{"server.self_us.ingest", "us"},
		{"server.self_us.query", "us"},
		{"server.restore_ms", "ms"},
		{"server.rejected", "count"},
		{"codec.decode_batch_ns_per_elem", "ns"},
	}
	for _, s := range restartSpecs {
		m = append(m, layerMetric{"codec.encode_ms." + kindName(s), "ms"})
	}
	for _, s := range restartSpecs {
		if s.Kind != "windowed" {
			m = append(m, layerMetric{"codec.restore_ms." + kindName(s), "ms"})
		}
	}
	for _, s := range servedSpecs {
		m = append(m, layerMetric{"concurrent.update_batch_ns_per_elem." + s.Algo, "ns"})
	}
	m = append(m, layerMetric{"concurrent.lock_ns_per_elem.l2sr", "ns"})
	for _, s := range servedSpecs {
		m = append(m, layerMetric{"concurrent.refresh_ms." + s.Algo, "ms"})
	}
	m = append(m, layerMetric{"concurrent.stale_read_ratio", "ratio"})
	for _, a := range probeAlgos {
		m = append(m, layerMetric{"core.new_ms." + a, "ms"})
	}
	for _, a := range probeAlgos {
		m = append(m, layerMetric{"core.update_batch_ns_per_elem." + a, "ns"})
	}
	for _, a := range biasAlgos {
		m = append(m, layerMetric{"core.bias_us." + a, "us"})
	}
	for _, a := range probeAlgos {
		m = append(m, layerMetric{"sketch.query_batch_ns_per_point." + a, "ns"})
	}
	for _, a := range biasAlgos {
		m = append(m, layerMetric{"sketch.topk_ms." + a, "ms"})
	}
	return append(m,
		layerMetric{"hashing.hash_many_ns_per_key.pairwise", "ns"},
		layerMetric{"hashing.hash_many_ns_per_key.tabulation", "ns"},
		layerMetric{"window.update_batch_ns_per_elem", "ns"},
		layerMetric{"window.restore_ms", "ms"},
		layerMetric{"distributed.round_ms.p50", "ms"},
		layerMetric{"distributed.round_ms.p99", "ms"},
		layerMetric{"distributed.delta_entries_per_round", "count"},
		layerMetric{"distributed.full_frames", "count"},
		layerMetric{"distributed.comm_bytes_per_round", "B"},
	)
}()

var (
	probeAlgos = []string{"countmin", "countsketch", "l1sr", "l2sr"}
	biasAlgos  = []string{"l1sr", "l2sr"}
)

const (
	probeFrames = 64  // frames applied per update-batch probe
	probeReps   = 201 // repetitions of the sub-microsecond probes
)

// probeLayers times the hashing, core and sketch layers in process at
// the workload shape, on frames and query batches from the workload's
// key distribution. It runs in every traced run, so these numbers are
// comparable across workloads.
func (r *run) probeLayers(o *outcome) error {
	ring, err := r.gen.frames("probe")
	if err != nil {
		return err
	}
	type batch struct {
		idx    []int
		deltas []float64
	}
	frames := make([]batch, probeFrames)
	for f := range frames {
		if frames[f].idx, frames[f].deltas, err = repro.DecodeBatch(bytes.NewReader(ring[f]), dim); err != nil {
			return err
		}
	}
	queries := r.gen.queries("probe", probeFrames)
	shape := registry.Shape{N: dim, S: words, D: repro.DefaultDepth, Seed: repro.DefaultSeed}

	for _, a := range probeAlgos {
		e, ok := registry.Lookup(a)
		if !ok {
			return fmt.Errorf("unknown algorithm %s", a)
		}
		var newMS samples
		var sk sketch.Sketch
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			sk = e.MustNew(shape)
			newMS = append(newMS, ms(time.Since(t0)))
		}
		o.layer["core.new_ms."+a] = newMS.median()

		var upd samples
		for _, f := range frames {
			t0 := time.Now()
			sketch.UpdateBatch(sk, f.idx, f.deltas)
			upd = append(upd, ms(time.Since(t0)))
		}
		o.layer["core.update_batch_ns_per_elem."+a] = perElemNS(upd)

		if p, ok := sk.(interface{ PrepareRead() }); ok {
			p.PrepareRead()
		}
		out := make([]float64, queryLen)
		var qry samples
		for rep := 0; rep < 3; rep++ {
			for _, q := range queries {
				t0 := time.Now()
				sketch.QueryBatch(sk, q, out)
				qry = append(qry, ms(time.Since(t0)))
			}
		}
		o.layer["sketch.query_batch_ns_per_point."+a] = qry.median() * 1e6 / queryLen

		b, ok := sk.(heavyhitter.BiasedSketch)
		if !ok {
			continue
		}
		var bias, topk samples
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			b.Bias()
			bias = append(bias, ms(time.Since(t0)))
		}
		for i := 0; i < layerReps; i++ {
			t0 := time.Now()
			heavyhitter.TopK(b, topkK)
			topk = append(topk, ms(time.Since(t0)))
		}
		o.layer["core.bias_us."+a] = bias.median() * 1000
		o.layer["sketch.topk_ms."+a] = topk.median()
	}

	keys := make([]int, 0, probeFrames*frameLen)
	for _, f := range frames {
		keys = append(keys, f.idx...)
	}
	hr := r.gen.rng("probe-hash")
	for _, fam := range []struct {
		name string
		mk   func(*rand.Rand, int, int) (hashing.Family, error)
	}{{"pairwise", hashing.NewFamily}, {"tabulation", hashing.NewTabFamily}} {
		f, err := fam.mk(hr, repro.DefaultDepth, words)
		if err != nil {
			return err
		}
		out := make([]int, frameLen)
		var hm samples
		for lo := 0; lo+frameLen <= len(keys); lo += frameLen {
			t0 := time.Now()
			for t := 0; t < repro.DefaultDepth; t++ {
				f.HashMany(t, keys[lo:lo+frameLen], out)
			}
			hm = append(hm, ms(time.Since(t0)))
		}
		o.layer["hashing.hash_many_ns_per_key."+fam.name] = hm.median() * 1e6 / (frameLen * repro.DefaultDepth)
	}
	return nil
}
