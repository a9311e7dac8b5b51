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
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module source typecheck is slow; run without -short")
	}
	mod, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "noncanon" {
		t.Fatalf("loaded module %q, want noncanon", mod.Path)
	}
	for _, p := range mod.Packages {
		for _, terr := range p.TypeErrs {
			t.Errorf("typecheck %s: %v", p.ImportPath, terr)
		}
	}
	if t.Failed() {
		t.Fatal("tree does not typecheck; rule results would be unreliable")
	}
	for _, f := range Check(mod) {
		t.Errorf("finding on the real tree: %s", f)
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
