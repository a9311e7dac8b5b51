package arch

import (
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadFixture loads testdata/src/<name> as a single-package module named
// "fixture", parsed and typechecked exactly like the real loader (stdlib
// from GOROOT source). Fixtures live under testdata so the go tool — and
// therefore TestRepositoryIsClean's whole-module load — never sees them.
func loadFixture(t *testing.T, name string) (*Module, *Package) {
	t.Helper()
	mod := newFixtureModule(t, "fixture")
	p := addFixturePackage(t, mod, "fixture/"+name, name)
	mod.typecheck()
	requireTypechecked(t, mod)
	return mod, p
}

func newFixtureModule(t *testing.T, path string) *Module {
	t.Helper()
	return &Module{Path: path, Fset: token.NewFileSet(), byPath: map[string]*Package{}}
}

func addFixturePackage(t *testing.T, mod *Module, importPath, subdir string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", subdir))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := &Package{ImportPath: importPath, Dir: dir}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			p.GoFiles = append(p.GoFiles, e.Name())
		}
	}
	if len(p.GoFiles) == 0 {
		t.Fatalf("no fixture sources in %s", dir)
	}
	if err := p.parse(mod.Fset); err != nil {
		t.Fatal(err)
	}
	mod.Packages = append(mod.Packages, p)
	mod.byPath[importPath] = p
	return p
}

func requireTypechecked(t *testing.T, mod *Module) {
	t.Helper()
	for _, p := range mod.Packages {
		for _, err := range p.TypeErrs {
			t.Fatalf("fixture %s does not typecheck: %v", p.ImportPath, err)
		}
	}
}

// fixtureLine returns the 1-based line in the package's (single) source
// file whose text contains marker; the marker must be unique.
func fixtureLine(t *testing.T, p *Package, marker string) int {
	t.Helper()
	if len(p.GoFiles) != 1 {
		t.Fatalf("fixtureLine wants a single-file package, got %v", p.GoFiles)
	}
	src, err := os.ReadFile(filepath.Join(p.Dir, p.GoFiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	line := 0
	for i, l := range strings.Split(string(src), "\n") {
		if strings.Contains(l, marker) {
			found++
			line = i + 1
		}
	}
	if found != 1 {
		t.Fatalf("marker %q matched %d lines, want exactly 1", marker, found)
	}
	return line
}

// findingLines renders findings as "rule@line" strings, sorted, for
// whole-set comparison against fixture expectations.
func findingLines(fs []Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Rule+"@"+strconv.Itoa(f.Pos.Line))
	}
	sort.Strings(out)
	return out
}

func wantLines(t *testing.T, p *Package, expect map[string][]string) []string {
	t.Helper()
	var out []string
	for rule, markers := range expect {
		for _, m := range markers {
			out = append(out, rule+"@"+strconv.Itoa(fixtureLine(t, p, m)))
		}
	}
	sort.Strings(out)
	return out
}
