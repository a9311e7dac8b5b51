package arch

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CheckHotPaths flags every range over a map inside a function annotated
// `//nclint:hotpath` (the MatchInto/Publish/PublishBatch spine), function
// literals in its body included. Map iteration is randomized and
// pointer-chasing, hostile to the cache discipline the sorted-attribute
// layout buys, and it allocates nothing, so no allocation budget can see
// it; probing m[k] stays fine.
//
// Map iteration is the one check left here. Allocation on the spine is
// gated by the testing.AllocsPerRun budgets that run every annotated
// function, which measure what a syntactic lint could only guess at.
func CheckHotPaths(mod *Module) []Finding {
	var out []Finding
	for _, p := range mod.Packages {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasHotpathDirective(fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if r, ok := n.(*ast.RangeStmt); ok && isMapType(p, r.X) {
						out = append(out, Finding{
							Pos: mod.Fset.Position(r.X.Pos()), Rule: "hotpath", Pkg: p.ImportPath,
							Msg: fmt.Sprintf("map iteration is unordered and cache-hostile in hot-path function %s", fd.Name.Name),
						})
					}
					return true
				})
			}
		}
	}
	return out
}

// hasHotpathDirective reports whether the function's doc comment carries
// //nclint:hotpath.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotpathDirective) {
			return true
		}
	}
	return false
}

// isMapType reports whether the expression's type is (underlying) a map.
func isMapType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
