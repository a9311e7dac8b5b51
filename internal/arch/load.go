package arch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and typechecked module package.
type Package struct {
	// ImportPath is the full import path (e.g. noncanon/internal/core).
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Name is the package name ("main" for commands).
	Name string
	// GoFiles are the non-test Go source files (base names).
	GoFiles []string
	// Imports are the direct non-test imports.
	Imports []string
	// Files are the parsed sources, aligned with GoFiles.
	Files []*ast.File
	// Types is the typechecked package; nil when typechecking failed.
	Types *types.Package
	// Info carries use/selection/type facts for the rule passes.
	Info *types.Info
	// TypeErrs collects typechecking errors (empty on a building tree).
	TypeErrs []error
}

// Module is a loaded set of packages sharing one FileSet.
type Module struct {
	// Path is the module path (e.g. noncanon).
	Path string
	// Dir is the module root directory.
	Dir string
	// Packages are the loaded packages, in go list order.
	Packages []*Package
	// Fset positions every parsed file.
	Fset *token.FileSet

	byPath map[string]*Package
}

// Pkg returns the package with the given import path, or nil.
func (m *Module) Pkg(path string) *Package { return m.byPath[path] }

// listJSON mirrors the `go list -json` fields the loader consumes.
type listJSON struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Module     *struct{ Path string }
}

// Load runs `go list -json patterns...` in dir, parses every listed module
// package and typechecks them in dependency order. Standard-library
// imports are typechecked from GOROOT source (no compiled export data or
// third-party loader needed), so Load works with exactly the toolchain
// that builds the tree.
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	mod := &Module{Dir: dir, Fset: token.NewFileSet(), byPath: map[string]*Package{}}
	for _, m := range metas {
		if m.Standard || m.Name == "" {
			continue
		}
		if mod.Path == "" && m.Module != nil {
			mod.Path = m.Module.Path
		}
		p := &Package{
			ImportPath: m.ImportPath,
			Dir:        m.Dir,
			Name:       m.Name,
			GoFiles:    m.GoFiles,
			Imports:    m.Imports,
		}
		mod.Packages = append(mod.Packages, p)
		mod.byPath[p.ImportPath] = p
	}
	if mod.Path == "" {
		return nil, fmt.Errorf("arch: no module packages matched %v in %s", patterns, dir)
	}

	for _, p := range mod.Packages {
		if err := p.parse(mod.Fset); err != nil {
			return nil, err
		}
	}
	mod.typecheck()
	return mod, nil
}

// goList shells out to the go tool and decodes its JSON stream.
func goList(dir string, patterns []string) ([]listJSON, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("arch: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var metas []listJSON
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m listJSON
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("arch: decode go list output: %v", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// parse reads the package's sources with comments.
func (p *Package) parse(fset *token.FileSet) error {
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("arch: parse %s: %v", path, err)
		}
		p.Files = append(p.Files, f)
	}
	return nil
}

// typecheck checks every package in dependency order over a shared source
// importer, recording errors rather than failing: a tree that builds has
// none, and the rule passes degrade gracefully on one that does not.
func (m *Module) typecheck() {
	// The source importer compiles stdlib dependencies from GOROOT source;
	// disable cgo so packages like net resolve through their pure-Go paths.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(m.Fset, "source", nil)
	imp := &moduleImporter{mod: m, std: std}

	var check func(p *Package)
	seen := map[*Package]bool{}
	check = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, dep := range p.Imports {
			if d := m.byPath[dep]; d != nil {
				check(d)
			}
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
		}
		tp, _ := conf.Check(p.ImportPath, m.Fset, p.Files, info)
		p.Types = tp
		p.Info = info
	}
	for _, p := range m.Packages {
		check(p)
	}
}

// moduleImporter resolves module-internal imports from the loaded set and
// everything else through the stdlib source importer.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p := mi.mod.byPath[path]; p != nil {
		if p.Types == nil {
			return nil, fmt.Errorf("arch: import cycle or unchecked package %s", path)
		}
		return p.Types, nil
	}
	return mi.std.Import(path)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := mi.mod.byPath[path]; p != nil {
		return mi.Import(path)
	}
	if from, ok := mi.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return mi.std.Import(path)
}
