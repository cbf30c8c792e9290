// Command dsbench regenerates the paper's tables and figures on the
// synthetic stand-in datasets, and measures sharded training (-exp train).
// How fast the product compresses, decompresses and queries is benchmarks/'s.
//
// Usage:
//
//	dsbench -exp fig6            # one experiment
//	dsbench -exp all             # everything, in paper order
//	dsbench -list                # show available experiment ids
//
// Flags:
//
//	-scale 1.0    row-count multiplier on each dataset's default size
//	-seed 1       random seed
//	-quick        trimmed sweeps and training, for smoke runs
//	-csv dir      also write each report as <dir>/<id>.csv
//	-v            progress logging to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"deepsqueeze/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	scale := flag.Float64("scale", 1.0, "dataset row-count multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "trimmed smoke-run configuration")
	csvDir := flag.String("csv", "", "directory to also write CSV reports into")
	verbose := flag.Bool("v", false, "verbose progress")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "dsbench: -exp required (or -list)")
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed, Quick: *quick}
	if *verbose {
		cfg.Verbose = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsbench:", err)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := rep.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dsbench:", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "dsbench:", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, rep.ID+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "dsbench:", err)
				os.Exit(1)
			}
			if err := rep.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, "dsbench:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dsbench:", err)
				os.Exit(1)
			}
		}
	}
}
