// Command _benchmark is the repository's benchmark: it drives the real
// serving stack over loopback from a frozen load generator, checks every
// delivery against a naive oracle, and prints every metric of BENCHMARK.json
// by name with its unit. See README.md.
//
//	_benchmark -workload W -seed N -seconds S -trace 0|1   one run, result as the last line
//	_benchmark -seed N -out DIR                            every workload, plain then traced; results appended to DIR/results.json, spans in DIR/<workload>/trace.json
//	_benchmark -compare A.json B.json                      medians of two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(mainCode()) }

func mainCode() int {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		return keepAwakeChild()
	}
	workload := flag.String("workload", "all", "fanout, selective, churn, federated, or all")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 28, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, nothing traced; 1: per-layer metrics from the traced run")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace.json and results.json")
	compare := flag.Bool("compare", false, "compare two results.json files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	awake, note := startKeepAwake()
	defer awake.stop()
	fmt.Printf("# host: nproc %d, GOMAXPROCS %d, %s %s/%s; loopback TCP; keep-awake: %s\n", runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH, note)

	var todo []runConfig
	for i := range specs {
		sp := &specs[i]
		if *workload != "all" && *workload != sp.name {
			continue
		}
		base := runConfig{spec: sp, seed: *seed, seconds: *seconds, outDir: *out, log: os.Stdout, awake: awake}
		if *workload == "all" {
			traced := base
			traced.trace, traced.outDir = true, filepath.Join(*out, sp.name)
			todo = append(todo, base, traced)
		} else {
			base.trace = *trace != 0
			todo = append(todo, base)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}

	ok := true
	for _, cfg := range todo {
		fmt.Printf("# workload %s seed %d seconds %g trace %v: %s\n", cfg.spec.name, cfg.seed, cfg.seconds, cfg.trace, cfg.spec.why)
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.spec.name, err)
			return 1
		}
		for _, name := range sortedNames(res.Metrics) {
			m := res.Metrics[name]
			fmt.Printf("%-40s %16.4f %s\n", name, m.Value, m.Unit)
		}
		if *workload == "all" {
			if err := appendResult(filepath.Join(*out, "results.json"), cfg, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		return 1
	}
	return 0
}
