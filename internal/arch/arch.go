// Package arch is a stdlib-only static-analysis suite that machine-checks
// the architectural invariants no test expresses:
//
//   - Layering (imports.go): every package's imports must match the
//     declared DAG in policy.go exactly — no undeclared edge, no stale
//     allowance, no forbidden stdlib group (internal/router must stay
//     transport-agnostic: no net, no internal/wire). Among the serving
//     packages only internal/broker may import internal/core, so it alone
//     owns an engine, and only the two TCP transports may import
//     internal/wire, so wire types stay behind them. Violations name the
//     forbidden edge.
//   - Lock discipline (locks.go): no blocking channel operation lexically
//     between Lock()/Unlock() of the same sync mutex (the PR 5
//     inbox-cycle deadlock shape). sync.Cond.Wait is exempt — it releases
//     the mutex.
//   - Hot-path map iteration (hotpath.go): functions annotated
//     `//nclint:hotpath` may not range over a map. That is the one banned
//     construct whose cost is CPU and cache rather than allocation; the
//     testing.AllocsPerRun budgets beside the annotated functions gate
//     allocation, by measuring it.
//
// The suite is built on go/parser, go/ast, go/types and `go list -export
// -json` only: Load (load.go) typechecks module sources against the
// compiler's export data for their imports, standard library included.
// TestRepositoryIsClean runs every rule over the real tree, which must
// be clean, and the other tests run each rule against checked-in
// fixtures under testdata, loaded by the same Load.
package arch

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the finding; it may be zero for package-level findings
	// (e.g. an undeclared import edge).
	Pos token.Position
	// Rule names the rule family: "layering", "lock-blocking" or
	// "hotpath".
	Rule string
	// Pkg is the import path of the offending package.
	Pkg string
	// Msg describes the violation, naming the forbidden edge or construct.
	Msg string
}

// String renders the finding in file:line: rule: message form.
func (f Finding) String() string {
	if f.Pos.Filename == "" {
		return fmt.Sprintf("%s: %s: %s", f.Pkg, f.Rule, f.Msg)
	}
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// SortFindings orders findings by package, file and position for stable
// output.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Msg < b.Msg
	})
}

// Check runs every rule family over a loaded module and returns the
// combined findings, sorted.
func Check(mod *Module) []Finding {
	var out []Finding
	out = append(out, CheckLayering(mod, DefaultPolicy)...)
	out = append(out, CheckLockDiscipline(mod)...)
	out = append(out, CheckHotPaths(mod)...)
	SortFindings(out)
	return out
}

// hotpathDirective marks a function whose body may not range over a
// map: //nclint:hotpath.
const hotpathDirective = "nclint:hotpath"
