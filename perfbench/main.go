// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the real cmd/sketchd binary (ingest,
// mixed, restart) or against repro.Monitor in process (monitor),
// checks every answer, and prints its metrics. Run it through run.sh
// from the repository root:
//
//	bash perfbench/run.sh --workload mixed --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 the run records spans
// around every call into a layer, times the layers in process, and
// reports the per-layer metrics instead. WORKLOADS.md explains the
// workloads, the metrics and the predictions they test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// run is one benchmark invocation.
type run struct {
	seconds time.Duration
	sketchd string  // path of the cmd/sketchd binary
	dir     string  // private scratch directory of this run
	gen     gen     // every input derives from here
	led     *ledger // failure accounting
	tr      *tracer // nil unless --trace 1
}

// outcome is what a workload measured.
type outcome struct {
	e2e   map[string]float64 // the end-to-end metrics of BENCHMARK.json
	layer map[string]float64 // per-layer metrics, traced runs only
	lines []string           // every metric under its workload name, for people
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) linef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// endToEnd lists the end-to-end metrics every workload reports; see
// WORKLOADS.md for what each one measures on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "ingest, mixed, restart or monitor")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	sketchdBin := flag.String("sketchd", "", "path of the cmd/sketchd binary")
	work := flag.String("work", ".bench_build", "directory for data, traces and results")
	flag.Parse()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()

	err := benchmark(*workload, *seed, *seconds, *trace == 1, *sketchdBin, *work)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds int, traced bool, sketchdBin, work string) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %d", seconds)
	}
	if sketchdBin == "" && workload != "monitor" {
		return fmt.Errorf("--sketchd is required for workload %q", workload)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		seconds: time.Duration(seconds) * time.Second,
		sketchd: sketchdBin, dir: dir, gen: gen{seed}, led: &ledger{},
	}
	if traced {
		r.tr = newTracer()
	}

	err = selfTest(seed)
	r.led.check(err == nil, "input self-test: %v", err)

	var o *outcome
	switch workload {
	case "ingest":
		o, err = r.runServed(false)
	case "mixed":
		o, err = r.runServed(true)
	case "restart":
		o, err = r.runRestart()
	case "monitor":
		o, err = r.runMonitor()
	default:
		return fmt.Errorf("unknown --workload %q (valid: ingest, mixed, restart, monitor)", workload)
	}
	if err != nil {
		return err
	}
	if traced {
		if err := r.probeLayers(o); err != nil {
			return err
		}
		o.layer["server.rejected"] = float64(r.led.status4xx.Load() + r.led.status429.Load() + r.led.status5xx.Load())
	}

	fmt.Printf("workload %s, seed %d, %d s measured, trace %v\n", workload, seed, seconds, traced)
	for _, l := range o.lines {
		fmt.Println("  " + l)
	}
	fmt.Println("  failures: " + r.led.String())

	res := result{
		Correct:   r.led.failed() == 0,
		Attempted: r.led.attempted.Load(),
		Failed:    r.led.failed(),
		Metrics:   map[string]metric{},
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{o.e2e[m.name], m.unit}
	}
	results := filepath.Join(work, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(results, fmt.Sprintf("%s-seed%d", workload, seed))
	if traced {
		printOverhead(stem+"-e2e.json", res.Metrics)
		res.Metrics = map[string]metric{}
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{o.layer[m.name], m.unit}
		}
		printLayers(res.Metrics)
		if err := r.tr.write(stem + "-spans.json"); err != nil {
			return err
		}
		fmt.Printf("  spans: %s-spans.json\n", stem)
	} else if err := writeJSON(stem+"-e2e.json", res.Metrics); err != nil {
		return err
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printOverhead prints the traced run's end-to-end metrics next to the
// untraced run's of the same workload and seed, when one was made in
// this checkout: the difference is the tracing overhead.
func printOverhead(untracedPath string, traced map[string]metric) {
	var untraced map[string]metric
	if data, err := os.ReadFile(untracedPath); err == nil {
		json.Unmarshal(data, &untraced)
	}
	fmt.Println("  end-to-end, traced vs untraced (tracing overhead):")
	for _, m := range endToEnd {
		u, ok := untraced[m.name]
		if !ok {
			fmt.Printf("    %-16s %12.4f %s traced; no untraced run of this seed here\n", m.name, traced[m.name].Value, m.unit)
			continue
		}
		fmt.Printf("    %-16s %12.4f %s traced, %12.4f %s untraced (%+.1f%%)\n", m.name,
			traced[m.name].Value, m.unit, u.Value, m.unit, 100*(traced[m.name].Value/u.Value-1))
	}
}

func printLayers(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("  per-layer:")
	for _, n := range names {
		fmt.Printf("    %-44s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if ms["server.self_us.ingest"].Value == 0 {
		return // the workload does not ingest over HTTP
	}
	// The serving cost of one ingested element, layer by layer.
	fmt.Printf("  ingest cost per element (l2sr): server self %.1f ns + decode %.1f ns + lock %.1f ns + core update %.1f ns\n",
		1000*ms["server.self_us.ingest"].Value/frameLen, ms["codec.decode_batch_ns_per_elem"].Value,
		ms["concurrent.lock_ns_per_elem.l2sr"].Value, ms["core.update_batch_ns_per_elem.l2sr"].Value)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
