package arch

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadFixture loads testdata/src/<name> through Load, exactly as
// TestRepositoryIsClean loads the real tree, and returns its one package.
// Fixtures live under testdata so that ./... never matches them; go list
// still lists a testdata directory named explicitly.
func loadFixture(t *testing.T, name string) (*Module, *Package) {
	t.Helper()
	mod, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Packages) != 1 {
		t.Fatalf("fixture %s loaded %d module packages, want 1", name, len(mod.Packages))
	}
	return mod, mod.Packages[0]
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
