// Command nclint runs the repository's architecture and concurrency
// lints (internal/arch) over the module:
//
//   - layering: the import graph must match the declared DAG in
//     internal/arch/policy.go exactly (no new edges, no stale allowances,
//     no net/os/syscall in engine layers, router transport-agnostic, and
//     among the serving packages only internal/broker imports
//     internal/core, so it alone owns an engine);
//   - api-leak: internal/wire types never appear in engine package APIs;
//   - lock-blocking: no blocking channel operation lexically between
//     Lock/Unlock of the same mutex (the PR 5 deadlock shape);
//   - hotpath: functions annotated //nclint:hotpath are denied
//     known-allocating constructs.
//
// Usage:
//
//	nclint ./...
//
// nclint exits 0 when the tree is clean and 1 with one finding per line
// otherwise; CI treats any finding as a failure. Deliberate exceptions
// use `//nclint:allow <rule> -- <justification>` on the offending or
// preceding line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"noncanon/internal/arch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nclint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("C", ".", "module directory to analyse")
	verbose := fs.Bool("v", false, "report the number of packages analysed")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := arch.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(errOut, "nclint:", err)
		return 2
	}
	// A package that no longer typechecks yields unreliable analysis;
	// surface it loudly instead of half-checking.
	broken := false
	for _, p := range mod.Packages {
		for _, terr := range p.TypeErrs {
			fmt.Fprintf(errOut, "nclint: typecheck %s: %v\n", p.ImportPath, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	findings := arch.Check(mod)
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if *verbose {
		fmt.Fprintf(errOut, "nclint: %d packages, %d findings\n", len(mod.Packages), len(findings))
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
