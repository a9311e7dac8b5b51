package arch

import (
	"go/token"
	"slices"
	"strings"
	"testing"
)

// syntheticModule builds an in-memory module (no files on disk) for the
// layering checker, which only needs import paths and the module path.
func syntheticModule(pkgs map[string][]string) *Module {
	mod := &Module{Path: "example.com/m", Fset: token.NewFileSet()}
	for rel, imports := range pkgs {
		mod.Packages = append(mod.Packages, &Package{ImportPath: "example.com/m/" + rel, Imports: imports})
	}
	return mod
}

// TestLayeringViolations drives every finding class of the layering rule
// through one synthetic module and asserts the exact finding count plus
// one identifying fragment per class.
func TestLayeringViolations(t *testing.T) {
	mod := syntheticModule(map[string][]string{
		"internal/a": {"fmt", "example.com/m/internal/b"},
		"internal/b": {"net/http", "golang.org/x/text/cases"},
		"internal/c": {},
		"internal/d": {"example.com/m/internal/b", "example.com/m/internal/a"},
		// An engine-layer package importing the frame protocol: the edge
		// that would let wire types into its API.
		"internal/engine": {"example.com/m/internal/wire"},
		"internal/wire":   {},
	})
	policy := Policy{Packages: map[string]PackageRule{
		"internal/a": {Layer: "engine", Allow: []string{"internal/b", "internal/never"}},
		"internal/b": {Layer: "engine", ForbidStd: []string{"net"}},
		"internal/d": {Layer: "app",
			Deny: map[string]string{"internal/b": "d must not touch b"}},
		"internal/gone":   {Layer: "engine"},
		"internal/engine": {Layer: "engine", ForbidStd: pureStd},
		"internal/wire":   {Layer: "transport"},
	}}

	findings := CheckLayering(mod, policy)
	fragments := []string{
		"package internal/c is not declared",
		"forbidden stdlib import net/http in engine-layer package internal/b",
		"third-party dependency golang.org/x/text/cases",
		"forbidden edge internal/d -> internal/b: d must not touch b",
		"forbidden edge internal/d -> internal/a: not in the layering DAG",
		"stale allowance internal/a -> internal/never",
		"policy declares internal/gone but no such package exists",
		"forbidden edge internal/engine -> internal/wire: not in the layering DAG",
	}
	if len(findings) != len(fragments) {
		t.Errorf("got %d findings, want %d:\n%v", len(findings), len(fragments), findings)
	}
	for _, frag := range fragments {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Msg, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no layering finding contains %q; got %v", frag, findings)
		}
	}
}

// TestLayeringCleanModule: a module that matches its policy exactly
// produces no findings.
func TestLayeringCleanModule(t *testing.T) {
	mod := syntheticModule(map[string][]string{
		"internal/a": {"fmt", "example.com/m/internal/b"},
		"internal/b": {"sort"},
	})
	policy := Policy{Packages: map[string]PackageRule{
		"internal/a": {Layer: "engine", Allow: []string{"internal/b"}},
		"internal/b": {Layer: "kernel", ForbidStd: pureStd},
	}}
	if findings := CheckLayering(mod, policy); len(findings) != 0 {
		t.Errorf("clean module produced findings: %v", findings)
	}
}

// TestLayeringForbidStdIsPrefixNotSubstring: ForbidStd "net" must catch
// net and net/http but not netip-like names that merely share the prefix
// string.
func TestLayeringForbidStdIsPrefixNotSubstring(t *testing.T) {
	mod := syntheticModule(map[string][]string{
		"internal/a": {"internal/nettrace"}, // hypothetical: shares letters, not the path
	})
	policy := Policy{Packages: map[string]PackageRule{
		"internal/a": {Layer: "engine", ForbidStd: []string{"net"}},
	}}
	if findings := CheckLayering(mod, policy); len(findings) != 0 {
		t.Errorf("net prefix over-matched: %v", findings)
	}
}

func TestThirdPartyDetection(t *testing.T) {
	for path, want := range map[string]bool{
		"fmt":                    false,
		"net/http":               false,
		"golang.org/x/text":      true,
		"github.com/foo/bar":     true,
		"example.com/m/internal": true, // another module's path is third-party too
	} {
		if got := thirdParty(path); got != want {
			t.Errorf("thirdParty(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestDefaultPolicyInvariants sanity-checks the checked-in table itself:
// allowances are module-relative (no accidental full paths), denies carry
// reasons, and the engine layers forbid the impure stdlib groups.
func TestDefaultPolicyInvariants(t *testing.T) {
	for rel, rule := range DefaultPolicy.Packages {
		for _, a := range rule.Allow {
			if strings.HasPrefix(a, "noncanon/") {
				t.Errorf("%s: allowance %q must be module-relative", rel, a)
			}
		}
		for dep, reason := range rule.Deny {
			if strings.TrimSpace(reason) == "" {
				t.Errorf("%s: deny of %s needs a reason", rel, dep)
			}
			for _, a := range rule.Allow {
				if a == dep {
					t.Errorf("%s: %s is both allowed and denied", rel, dep)
				}
			}
		}
	}
	for _, rel := range []string{"internal/value", "internal/core", "internal/matcher", "internal/subtree", "internal/index"} {
		rule, ok := DefaultPolicy.Packages[rel]
		if !ok {
			t.Errorf("pure-compute package %s missing from policy", rel)
			continue
		}
		banned := map[string]bool{}
		for _, f := range rule.ForbidStd {
			banned[f] = true
		}
		for _, f := range pureStd {
			if !banned[f] {
				t.Errorf("%s: pure-compute layer must forbid stdlib %q", rel, f)
			}
		}
	}
	if _, ok := DefaultPolicy.Packages["internal/router"]; !ok {
		t.Fatal("internal/router missing from policy")
	}
	router := DefaultPolicy.Packages["internal/router"]
	if len(router.Deny) == 0 {
		t.Error("internal/router must carry named denials (wire, netoverlay)")
	}
	hasNet := false
	for _, f := range router.ForbidStd {
		if f == "net" {
			hasNet = true
		}
	}
	if !hasNet {
		t.Error("internal/router must forbid stdlib net: it is transport-agnostic")
	}
}

// TestEngineOwnersArePinned: among the serving packages (service and
// transport layers) only internal/broker may import internal/core, so it
// alone owns an engine; TestLayeringCleanModule holds the real imports to
// the table.
func TestEngineOwnersArePinned(t *testing.T) {
	var owners []string
	for rel, rule := range DefaultPolicy.Packages {
		if (rule.Layer == "service" || rule.Layer == "transport") && slices.Contains(rule.Allow, "internal/core") {
			owners = append(owners, rel)
		}
	}
	slices.Sort(owners)
	if want := []string{"internal/broker"}; !slices.Equal(owners, want) {
		t.Errorf("serving packages allowed internal/core = %v, want %v", owners, want)
	}
}

// TestWireStaysBehindTransports: only the two TCP transports may import
// internal/wire, and only commands, examples and internal/bench may import
// a transport, so no other package's API can mention a wire type.
// TestRepositoryIsClean holds the real imports to the table.
func TestWireStaysBehindTransports(t *testing.T) {
	transports := []string{"internal/netbroker", "internal/netoverlay"}
	var wireImporters []string
	for rel, rule := range DefaultPolicy.Packages {
		if slices.Contains(rule.Allow, "internal/wire") {
			wireImporters = append(wireImporters, rel)
		}
		if !slices.ContainsFunc(rule.Allow, func(a string) bool { return slices.Contains(transports, a) }) {
			continue
		}
		if !strings.HasPrefix(rel, "cmd/") && !strings.HasPrefix(rel, "examples/") && rel != "internal/bench" {
			t.Errorf("%s may import a transport; only cmd/*, examples/* and internal/bench may", rel)
		}
	}
	slices.Sort(wireImporters)
	if !slices.Equal(wireImporters, transports) {
		t.Errorf("packages allowed internal/wire = %v, want %v", wireImporters, transports)
	}
}
