package arch

import (
	"go/token"
	"strings"
	"testing"
)

// TestRepositoryIsClean loads and typechecks the whole real module and
// runs every rule family over it: the tree this test ships in must be
// clean, so CI catches a new violation in the same change that
// introduces it. It is the architecture gate, and CI runs it by name.
// Load fails on any type error, so the rules never run on a partial
// typecheck.
func TestRepositoryIsClean(t *testing.T) {
	mod, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "noncanon" {
		t.Fatalf("loaded module %q, want noncanon", mod.Path)
	}
	for _, f := range Check(mod) {
		t.Errorf("finding on the real tree: %s", f)
	}
}

// TestLoadRejectsTypeErrors loads a fixture that parses but does not
// typecheck: Load must fail, and its error must name the offending file,
// rather than hand the rule passes a package with holes in its type facts.
func TestLoadRejectsTypeErrors(t *testing.T) {
	mod, err := Load(".", "./testdata/src/typeerr")
	if err == nil {
		t.Fatalf("Load of a package with type errors succeeded with %d packages", len(mod.Packages))
	}
	if !strings.Contains(err.Error(), "typeerr.go") {
		t.Errorf("Load error does not name the fixture file typeerr.go:\n%v", err)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "layering", Pkg: "noncanon/internal/x", Msg: "boom"}
	if got := f.String(); got != "noncanon/internal/x: layering: boom" {
		t.Errorf("package-level finding renders %q", got)
	}
	f.Pos = token.Position{Filename: "x.go", Line: 3, Column: 2}
	if got := f.String(); !strings.HasPrefix(got, "x.go:3:2: layering:") {
		t.Errorf("positioned finding renders %q", got)
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Pkg: "b", Pos: token.Position{Filename: "f.go", Line: 9}},
		{Pkg: "a", Pos: token.Position{Filename: "g.go", Line: 1}},
		{Pkg: "a", Pos: token.Position{Filename: "f.go", Line: 5}},
		{Pkg: "a", Pos: token.Position{Filename: "f.go", Line: 2}},
	}
	SortFindings(fs)
	wantOrder := []struct {
		pkg  string
		file string
		line int
	}{{"a", "f.go", 2}, {"a", "f.go", 5}, {"a", "g.go", 1}, {"b", "f.go", 9}}
	for i, w := range wantOrder {
		if fs[i].Pkg != w.pkg || fs[i].Pos.Filename != w.file || fs[i].Pos.Line != w.line {
			t.Fatalf("after sort, index %d = %+v, want %+v", i, fs[i], w)
		}
	}
}
