package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// The restart workload checkpoints four sketches, one of each serving
// container, and reboots sketchd on them. The windowed pane is ~11.6
// days wide, so it never rotates during a run.
var restartSpecs = []spec{
	{Name: "l2", Kind: "sharded", Algo: "l2sr", Dim: dim, Words: words, Shards: 2},
	{Name: "l1", Kind: "sharded", Algo: "l1sr", Dim: dim, Words: words, Shards: 2},
	{Name: "w2", Kind: "windowed", Algo: "l2sr", Dim: dim, Words: words, Shards: 2, PaneWidthMS: 1e9},
	{Name: "cm", Kind: "plain", Algo: "countmin", Dim: dim, Words: words},
}

// kindName names a restart sketch in per-layer metric names.
func kindName(s spec) string { return s.Kind + "_" + s.Algo }

const (
	restartSetups = 5
	restartFill   = 16 // frames per (sketch, slot) before the checkpoint
	minBoots      = 3
	layerReps     = 3 // repetitions of each in-process layer timing
)

// fillRestart creates the restart sketches and ingests restartFill
// frames into each through two connections, one slot each.
func (r *run) fillRestart(c *client, rings [][][][]byte) error {
	for _, s := range restartSpecs {
		if !c.create(s) {
			return fmt.Errorf("create %s: %s", s.Name, r.led)
		}
	}
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < restartFill; f++ {
				for k, s := range restartSpecs {
					c.ingest(s.Name, slot, rings[k][slot][f], frameLen)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// answers queries every restart sketch on the first probe batch.
func answers(c *client, probes []int) [][]float64 {
	out := make([][]float64, len(restartSpecs))
	for k, s := range restartSpecs {
		out[k], _ = c.query(queryPath(s.Name, probes), len(probes))
	}
	return out
}

func (r *run) runRestart() (*outcome, error) {
	// The load generator keeps to one core; sketchd has the box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rings := make([][][][]byte, len(restartSpecs))
	for k, s := range restartSpecs {
		for slot := 0; slot < 2; slot++ {
			ring, err := r.gen.frames(fmt.Sprintf("restart/%s/slot%d", s.Name, slot))
			if err != nil {
				return nil, err
			}
			rings[k] = append(rings[k], ring)
		}
	}
	probes := r.gen.probes()[:queryLen]

	// Set-up: exec, create, fill and checkpoint, several times over;
	// the last data directory is the one the timed boots restore.
	var setups samples
	var dir string
	var before [][]float64
	for i := 0; i < restartSetups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("data%d", i))
		t0 := time.Now()
		p, err := startSketchd(r.sketchd, dir)
		if err != nil {
			return nil, err
		}
		c := newClient(p.base, r.led)
		if err := r.fillRestart(c, rings); err != nil {
			p.kill()
			return nil, err
		}
		c.checkpoint()
		setups = append(setups, time.Since(t0).Seconds())
		before = answers(c, probes)
		if err := p.stop(); err != nil {
			return nil, fmt.Errorf("stop sketchd: %w", err)
		}
		transport.CloseIdleConnections()
	}

	var serveMS, ckptMS, cycleMS, rssMB samples
	deadline := time.Now().Add(r.seconds)
	for boot := 0; boot < minBoots || time.Now().Before(deadline); boot++ {
		req := r.tr.req()
		t0 := time.Now()
		p, err := startSketchd(r.sketchd, dir)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		c := newClient(p.base, r.led)
		got := answers(c, probes)
		t2 := time.Now()
		for k, s := range restartSpecs {
			r.led.check(got[k] != nil && sameBits(got[k], before[k]),
				"boot %d: %s answers differ from before the restart", boot, s.Name)
		}
		serveMS = append(serveMS, ms(t2.Sub(t0)))
		rss, err := p.peakRSSMB()
		if err != nil {
			p.kill()
			return nil, err
		}
		rssMB = append(rssMB, rss)
		t3 := time.Now()
		c.checkpoint()
		t4 := time.Now()
		ckptMS = append(ckptMS, ms(t4.Sub(t3)))
		if err := p.stop(); err != nil {
			return nil, fmt.Errorf("stop sketchd: %w", err)
		}
		transport.CloseIdleConnections()
		cycleMS = append(cycleMS, ms(time.Since(t0)))
		if r.tr != nil {
			root := r.tr.add("restart.cycle", 0, req, t0, time.Now())
			r.tr.add("sketchd.exec_restore_listen", root, req, t0, t1)
			r.tr.add("server.first_answers", root, req, t1, t2)
			r.tr.add("server.checkpoint", root, req, t3, t4)
			r.tr.add("sketchd.drain_exit", root, req, t4, time.Now())
		}
	}

	o := newOutcome()
	o.e2e["setup_s"] = setups.median()
	o.e2e["latency_ms"] = serveMS.median()
	o.e2e["throughput_per_s"] = 1000 / cycleMS.median()
	o.e2e["peak_rss_mb"] = rssMB.median()
	o.linef("setup_s = %.4f s (median of %d set-ups)", setups.median(), len(setups))
	o.linef("time_to_serve_ms = %.4f ms (median of %d boots; %s)", serveMS.median(), len(serveMS), serveMS.describe("time_to_serve"))
	o.linef("checkpoint_ms = %.4f ms (median of %d; %s)", ckptMS.median(), len(ckptMS), ckptMS.describe("checkpoint"))
	o.linef("restart_cycles_per_s = %.4f 1/s (1/median cycle: exec, serve, checkpoint, drain; n=%d)", 1000/cycleMS.median(), len(cycleMS))
	o.linef("server_rss_mb = %.1f MB (median over boots)", rssMB.median())
	if r.tr != nil {
		if err := r.restartLayers(o, dir, rings); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// restartLayers times, in process, the layers a boot and a checkpoint
// go through on the workload's own data directory: the server's whole
// restore, then per sketch the codec's decode and encode.
func (r *run) restartLayers(o *outcome, dir string, rings [][][][]byte) error {
	var restore samples
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		if _, err := server.New(server.Config{DataDir: dir}); err != nil {
			return err
		}
		restore = append(restore, ms(time.Since(t0)))
	}
	o.layer["server.restore_ms"] = restore.median()

	for _, s := range restartSpecs {
		data, err := readContainer(dir, s.Name)
		if err != nil {
			return err
		}
		var dec, enc samples
		var win *repro.Windowed
		for i := 0; i < layerReps; i++ {
			t0 := time.Now()
			var checkpoint func(io.Writer) error
			switch s.Kind {
			case "sharded":
				sh, err := repro.RestoreSharded(bytes.NewReader(data))
				if err != nil {
					return err
				}
				checkpoint = sh.Checkpoint
			case "windowed":
				w, err := repro.RestoreWindowed(bytes.NewReader(data))
				if err != nil {
					return err
				}
				checkpoint, win = w.Checkpoint, w
			default:
				sk, err := repro.DecodeWith(data, repro.BackendDense)
				if err != nil {
					return err
				}
				checkpoint = func(w io.Writer) error { return repro.Encode(w, sk) }
			}
			t1 := time.Now()
			var buf bytes.Buffer
			if err := checkpoint(&buf); err != nil {
				return err
			}
			dec = append(dec, ms(t1.Sub(t0)))
			enc = append(enc, ms(time.Since(t1)))
			r.led.check(bytes.Equal(buf.Bytes(), data), "%s: re-encoded checkpoint differs from the file", s.Name)
		}
		o.layer["codec.encode_ms."+kindName(s)] = enc.median()
		if win == nil {
			o.layer["codec.restore_ms."+kindName(s)] = dec.median()
			continue
		}
		o.layer["window.restore_ms"] = dec.median()
		var upd samples
		for _, f := range rings[2][0] {
			idx, deltas, err := repro.DecodeBatch(bytes.NewReader(f), dim)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := win.UpdateBatch(0, idx, deltas); err != nil {
				return err
			}
			upd = append(upd, ms(time.Since(t0)))
		}
		o.layer["window.update_batch_ns_per_elem"] = perElemNS(upd)
	}
	return nil
}

// readContainer reads the current checkpoint container of one sketch,
// as its sidecar names it.
func readContainer(dir, name string) ([]byte, error) {
	base := filepath.Join(dir, tenant, name)
	raw, err := os.ReadFile(base + ".json")
	if err != nil {
		return nil, err
	}
	var side struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.Unmarshal(raw, &side); err != nil {
		return nil, fmt.Errorf("sidecar %s: %w", name, err)
	}
	return os.ReadFile(fmt.Sprintf("%s.g%d.ckpt", base, side.Gen))
}
