package arch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and typechecked module package.
type Package struct {
	// ImportPath is the full import path (e.g. noncanon/internal/core).
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// GoFiles are the non-test Go source files (base names).
	GoFiles []string
	// Imports are the direct non-test imports.
	Imports []string
	// Files are the parsed sources, aligned with GoFiles.
	Files []*ast.File
	// Info carries the use and type facts the rule passes read.
	Info *types.Info
}

// Module is a loaded set of packages sharing one FileSet.
type Module struct {
	// Path is the module path (e.g. noncanon).
	Path string
	// Packages are the loaded packages, in go list order.
	Packages []*Package
	// Fset positions every parsed file.
	Fset *token.FileSet
}

// listJSON is one package of `go list -json` output.
type listJSON struct {
	Package
	Name     string
	Export   string // compiled export data; empty for unsafe
	Standard bool
	Module   *struct{ Path string }
}

// Load runs `go list -export -deps -json patterns...` in dir, parses every
// module package it lists and typechecks each one against the compiler's
// export data for its imports: the files go list names in Export, which
// building them leaves in the build cache. Load fails if go list fails,
// which it does on a package that does not compile, or on any parse or
// type error, so every returned Package has its Info.
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Imports,Export,Standard,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("arch: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	mod := &Module{Fset: token.NewFileSet()}
	export := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		m := new(listJSON)
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("arch: decode go list output: %v", err)
		}
		export[m.ImportPath] = m.Export
		if m.Standard || m.Name == "" {
			continue
		}
		if mod.Path == "" && m.Module != nil {
			mod.Path = m.Module.Path
		}
		mod.Packages = append(mod.Packages, &m.Package)
	}
	if mod.Path == "" {
		return nil, fmt.Errorf("arch: no module packages matched %v in %s", patterns, dir)
	}

	imp := importer.ForCompiler(mod.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("arch: no export data for %s", path)
		}
		return os.Open(export[path])
	})
	for _, p := range mod.Packages {
		if err := p.check(mod.Fset, imp); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// check parses the package's sources with comments and typechecks them,
// failing on the first parse or type error.
func (p *Package) check(fset *token.FileSet, imp types.Importer) error {
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("arch: parse %s: %v", path, err)
		}
		p.Files = append(p.Files, f)
	}
	p.Info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(p.ImportPath, fset, p.Files, p.Info); err != nil {
		return fmt.Errorf("arch: typecheck %s: %v", p.ImportPath, err)
	}
	return nil
}
