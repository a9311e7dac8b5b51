// Package arch is a stdlib-only static-analysis suite that machine-checks
// the architectural invariants this repository has already paid for
// breaking once:
//
//   - Layering (imports.go): every package's imports must match the
//     declared DAG in policy.go exactly — no undeclared edge, no stale
//     allowance, no forbidden stdlib group (internal/router must stay
//     transport-agnostic: no net, no internal/wire). Among the serving
//     packages only internal/broker may import internal/core, so it alone
//     owns an engine. Violations name the forbidden edge.
//   - API hygiene (apileak.go): internal/wire types must never appear in
//     the exported API of engine-layer packages, so wire/value semantics
//     cannot leak across the transport boundary again (the PR 4
//     interning-bug shape).
//   - Lock discipline (locks.go): no blocking channel operation lexically
//     between Lock()/Unlock() of the same sync mutex (the PR 5
//     inbox-cycle deadlock shape). sync.Cond.Wait is exempt — it releases
//     the mutex. Deliberate exceptions need
//     `//nclint:allow lock-blocking -- <justification>`.
//   - Hot-path allocations (hotpath.go): functions annotated
//     `//nclint:hotpath` are denied known-allocating constructs (fmt
//     calls, string concatenation in loops, map literals, unhinted append
//     growth in loops), the regression gate in front of the
//     allocation-free-hot-path roadmap item.
//
// The suite is built on go/parser, go/ast, go/types and `go list -json`
// only; `cmd/nclint` is its CLI and internal/arch's own tests run every
// rule against both the real tree (which must be clean) and checked-in
// violation fixtures under testdata.
package arch

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the finding; it may be zero for package-level findings
	// (e.g. an undeclared import edge).
	Pos token.Position
	// Rule names the rule family: "layering", "api-leak", "lock-blocking",
	// "hotpath" or "directive".
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
	out = append(out, CheckAPILeaks(mod, DefaultPolicy)...)
	out = append(out, CheckLockDiscipline(mod)...)
	out = append(out, CheckHotPaths(mod)...)
	SortFindings(out)
	return out
}

// --- directives -----------------------------------------------------------

// Directive prefixes recognised in comments.
const (
	// allowPrefix marks a deliberate, justified rule exception on the same
	// or the preceding line: //nclint:allow <rule> -- <justification>.
	allowPrefix = "nclint:allow"
	// hotpathDirective marks a function whose body is subject to the
	// hot-path allocation lint: //nclint:hotpath.
	hotpathDirective = "nclint:hotpath"
)

// allowDirective is one parsed //nclint:allow comment.
type allowDirective struct {
	rule          string
	justification string
	line          int
}

// parseAllow parses an //nclint:allow directive from a single comment's
// text (with the // already stripped). ok is false for non-directives.
func parseAllow(text string) (d allowDirective, ok bool) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return d, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	rule, just, _ := strings.Cut(rest, "--")
	d.rule = strings.TrimSpace(rule)
	d.justification = strings.TrimSpace(just)
	return d, true
}

// allowIndex maps file -> line -> directive for one package, so a finding
// on line N can look up an exception on line N or N-1.
type allowIndex map[string]map[int]allowDirective

// allowed reports whether a directive for rule covers the given position,
// and returns a finding when the directive exists but carries no
// justification (an unjustified exception is itself a violation).
func (ai allowIndex) allowed(pkg, rule string, pos token.Position) (ok bool, bad *Finding) {
	lines := ai[pos.Filename]
	for _, ln := range []int{pos.Line, pos.Line - 1} {
		d, exists := lines[ln]
		if !exists || d.rule != rule {
			continue
		}
		if d.justification == "" {
			f := Finding{
				Pos:  token.Position{Filename: pos.Filename, Line: ln},
				Rule: "directive",
				Pkg:  pkg,
				Msg:  fmt.Sprintf("nclint:allow %s needs a justification (use `-- <why>`)", rule),
			}
			return false, &f
		}
		return true, nil
	}
	return false, nil
}
