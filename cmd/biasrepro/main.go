// Command biasrepro regenerates the tables behind every figure in the
// evaluation section (§5) of "Bias-Aware Sketches" (Chen & Zhang,
// VLDB 2017), plus the extra experiments the paper argues in prose
// (BOMP, Remark 1, Counter Braids).
//
// Usage:
//
//	biasrepro [-fig N] [-scale F] [-seed S] [-depth D] [-csv] [-v]
//
// With -fig 0 (the default) every figure runs in order. -scale
// multiplies the default (laptop-sized) vector dimensions; each
// figure's doc comment in internal/bench/figures.go gives the paper's
// size next to the default. Output
// is an aligned text table per sub-figure, or CSV rows with -csv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "biasrepro: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("biasrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate (1-9; 10=BOMP 11=Remark1 12=CounterBraids 13=DengRafiei), 0 = all")
	scale := fs.Float64("scale", 1, "dimension multiplier over laptop defaults")
	seed := fs.Int64("seed", 1, "random seed")
	depth := fs.Int("depth", 9, "sketch depth d for the bias-aware algorithms")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	verbose := fs.Bool("v", false, "print per-cell progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.Config{Scale: *scale, Seed: *seed, Depth: *depth}
	if *verbose {
		cfg.Progress = stderr
	}

	var figs []int
	if *fig == 0 {
		for f := range bench.Figures {
			figs = append(figs, f)
		}
		sort.Ints(figs)
	} else {
		if _, ok := bench.Figures[*fig]; !ok {
			return fmt.Errorf("unknown figure %d (valid: 1-13)", *fig)
		}
		figs = []int{*fig}
	}

	for _, f := range figs {
		start := time.Now()
		tables := bench.Figures[f](cfg)
		for _, t := range tables {
			if *csv {
				t.CSV(stdout)
			} else {
				t.Print(stdout)
				fmt.Fprintln(stdout)
			}
		}
		if *verbose {
			fmt.Fprintf(stderr, "figure %d done in %v\n", f, time.Since(start))
		}
	}
	return nil
}
