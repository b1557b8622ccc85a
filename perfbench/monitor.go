package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"repro"
)

// The monitor workload: 64 skewed site streams shipped up a fan-in-4
// aggregation tree as delta frames, 4 replica shards per site, a site
// checkpoint every 2 rounds and a fixed churn schedule.
const (
	monitorSites  = 64
	monitorRounds = 8 // synchronization batches of the largest site
	monitorCalls  = 2 // Monitor calls per run at least; more while --seconds lasts
)

var monitorConfig = repro.MonitorConfig{
	SyncEvery:       repro.DefaultMonitorSyncEvery,
	FanIn:           4,
	Shards:          4,
	CheckpointEvery: 2,
	Restarts: []repro.MonitorRestart{
		{Round: 2, Site: 1}, {Round: 4, Site: 9}, {Round: 6, Site: 0}, {Round: 7, Site: 2},
	},
}

func (r *run) runMonitor() (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	streams := r.gen.siteStreams(monitorSites, monitorConfig.SyncEvery, monitorRounds)
	opts := []repro.Option{repro.WithDim(dim), repro.WithWords(words)}

	// The reference: one sketch fed every update.
	ref, err := repro.New("l2sr", opts...)
	if err != nil {
		return nil, err
	}
	updates := 0
	for _, s := range streams {
		for _, u := range s {
			ref.Update(u.I, u.Delta)
		}
		updates += len(s)
	}
	probes := r.gen.probes()
	want := make([]float64, len(probes))
	if err := repro.QueryBatch(ref, probes, want); err != nil {
		return nil, err
	}

	var setups, gaps, rounds samples
	var report repro.MonitorReport
	var busy time.Duration
	applied := 0
	start := time.Now()
	for call := 0; call < monitorCalls || time.Since(start) < r.seconds; call++ {
		req := r.tr.req()
		t0 := time.Now()
		last, first := t0, t0
		coord, rep, err := repro.Monitor("l2sr", monitorConfig, streams, func(round int, _ repro.Sketch) {
			now := time.Now()
			if round == 1 {
				first = now
				setups = append(setups, now.Sub(t0).Seconds())
			} else {
				gaps = append(gaps, ms(now.Sub(last)))
			}
			r.tr.add("distributed.round", 0, req, last, now)
			last = now
		}, opts...)
		r.led.attempted.Add(1)
		if err != nil {
			r.led.note(&r.led.status5xx, "monitor: %v", err)
			continue
		}
		busy += time.Since(t0)
		if rep.Rounds > 1 {
			rounds = append(rounds, ms(last.Sub(first))/float64(rep.Rounds-1))
		}
		applied += rep.UpdatesApplied
		report = rep
		got := make([]float64, len(probes))
		err = repro.QueryBatch(coord, probes, got)
		r.led.check(err == nil && sameBits(got, want), "monitor call %d: coordinator differs from the single-sketch reference (%v)", call, err)
	}
	if report.Rounds == 0 {
		return nil, fmt.Errorf("no monitor call succeeded: %s", r.led)
	}
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, err
	}
	deltas, full := 0, 0
	for _, pr := range report.PerRound {
		deltas += pr.DeltaEntries
		full += pr.FullFrames
	}
	commPerRound := float64(report.CommBytes) / float64(report.Rounds)

	o := newOutcome()
	o.e2e["setup_s"] = setups.median()
	o.e2e["latency_ms"] = rounds.median()
	o.e2e["throughput_per_s"] = float64(applied) / busy.Seconds()
	o.e2e["peak_rss_mb"] = rss
	o.linef("setup_s = %.4f s (Monitor call to first sync; median of %d calls)", setups.median(), len(setups))
	o.linef("monitor_updates_per_s = %.0f 1/s (%d updates of %d streamed per call, %d calls)", float64(applied)/busy.Seconds(), report.UpdatesApplied, updates, len(setups))
	o.linef("comm_bytes_per_round = %.0f B (exact: %d B over %d rounds)", commPerRound, report.CommBytes, report.Rounds)
	o.linef("round_ms = %.4f ms (mean sync round after the first, median of %d calls); %s", rounds.median(), len(rounds), gaps.describe("round"))
	o.linef("process_rss_mb = %.1f MB (benchmark process: Monitor runs in process)", rss)
	if r.tr != nil {
		o.layer["distributed.round_ms.p50"] = gaps.median()
		o.layer["distributed.round_ms.p99"] = gaps.pct(99)
		o.layer["distributed.delta_entries_per_round"] = float64(deltas) / float64(report.Rounds)
		o.layer["distributed.full_frames"] = float64(full)
		o.layer["distributed.comm_bytes_per_round"] = commPerRound
	}
	return o, nil
}
