// Command ncbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ncbench -exp fig3c                      # one experiment, 1/50 scale
//	ncbench -exp all -scale 0.1             # every experiment at 1/10 scale
//	ncbench -exp fig3b -swap                # with the paper's 512 MB swap model (M2)
//	ncbench -exp fig3a -csv > fig3a.csv     # machine-readable series
//	ncbench -exp batch                      # publish events/s vs batch size over TCP (B1)
//	ncbench -exp federate                   # TCP-federated broker tree vs node count (F1)
//	ncbench -exp obs                        # metrics overhead on the broker publish path (O1)
//	ncbench -exp table1 -json               # any experiment's table as JSON
//	ncbench -list                           # experiment inventory
//
// The PR-to-PR performance trajectory is not measured here: see
// BENCHMARK.json and _benchmark/ (sh _benchmark/run.sh).
//
// -scale 1 reproduces the paper's subscription counts (the DNF baselines
// then need multi-gigabyte memory — which is the paper's point).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"noncanon/internal/bench"
	"noncanon/internal/memmodel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ncbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ncbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list) or 'all'")
		list    = fs.Bool("list", false, "list experiments and exit")
		scale   = fs.Float64("scale", 0.02, "fraction of the paper's subscription counts")
		points  = fs.Int("points", 10, "sweep points per figure")
		trials  = fs.Int("trials", 5, "measured events per point")
		seed    = fs.Int64("seed", 1, "workload seed")
		csv     = fs.Bool("csv", false, "CSV output")
		jsonOut = fs.Bool("json", false, "JSON output (experiment id + its table's rows; single -exp only)")
		swap    = fs.Bool("swap", false, "apply the paper's 512 MB page-swap cost model (experiment M2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "%-18s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}
	cfg := bench.Config{
		Out:    out,
		Scale:  *scale,
		Points: *points,
		Trials: *trials,
		Seed:   *seed,
		CSV:    *csv,
	}
	if *swap {
		m := memmodel.PaperModel()
		cfg.Swap = &m
	}
	if *exp == "all" {
		if *jsonOut {
			return fmt.Errorf("-json requires a single -exp (one JSON document per experiment)")
		}
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "=== %s: %s ===\n", e.ID, e.Title)
			if err := e.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q; use -list", *exp)
	}
	if *jsonOut {
		return bench.RunJSON(e, cfg)
	}
	return e.Run(cfg)
}
