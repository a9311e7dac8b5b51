package arch

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CheckHotPaths lints every function annotated `//nclint:hotpath` (the
// MatchInto/Publish/PublishBatch spine) against known-allocating
// constructs, so the roadmap's allocation-free-hot-path work starts from
// a gated baseline instead of a moving target:
//
//   - any call into package fmt (Sprintf and friends allocate, and their
//     interface arguments escape);
//   - string concatenation inside a loop (quadratic garbage);
//   - map literals (a map literal allocates even when empty);
//   - make(map[...]...) — constructing a map is an allocation, and the
//     flat-event refactor exists precisely so the spine never needs one;
//   - ranging over a map — iteration is randomized and pointer-chasing,
//     hostile to the cache discipline the sorted-attribute layout buys
//     (probing m[k] stays fine);
//   - append growing a locally-declared slice inside a loop when the
//     declaration carries no capacity hint (make with two arguments, a
//     plain var, or a literal — each append risks a reallocation).
//
// The testing.AllocsPerRun budgets in internal/core and internal/broker
// gate the dynamic side of the same invariant; this lint catches the
// constructs before they ever run. Deliberate exceptions carry
// `//nclint:allow hotpath -- <justification>`.
func CheckHotPaths(mod *Module) []Finding {
	var out []Finding
	for _, p := range mod.Packages {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasHotpathDirective(fd) {
					continue
				}
				out = append(out, checkHotBody(mod, p, fd)...)
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

// checkHotBody lints one annotated function, tracking loop context.
// Function literals inside the body run on the same hot path and are
// included.
func checkHotBody(mod *Module, p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	report := func(pos token.Pos, msg string) {
		position := mod.Fset.Position(pos)
		ok, bad := p.allows.allowed(p.ImportPath, "hotpath", position)
		if bad != nil {
			out = append(out, *bad)
		}
		if !ok {
			out = append(out, Finding{Pos: position, Rule: "hotpath", Pkg: p.ImportPath,
				Msg: msg + fmt.Sprintf(" in hot-path function %s", fd.Name.Name)})
		}
	}

	// loopRanges marks the lexical extents of for/range bodies.
	type posRange struct{ from, to token.Pos }
	var loops []posRange
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, posRange{x.Body.Pos(), x.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, posRange{x.Body.Pos(), x.Body.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, r := range loops {
			if pos >= r.from && pos < r.to {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && usesPackage(p, sel, "fmt") {
				report(x.Pos(), fmt.Sprintf("fmt.%s allocates", sel.Sel.Name))
			}
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(p, id) && inLoop(x.Pos()) {
				if target, unhinted := unhintedAppendTarget(p, fd, x); unhinted {
					report(x.Pos(), fmt.Sprintf("append grows %s without a capacity hint in a loop", target))
				}
			}
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltin(p, id) && isMapType(p, x) {
				report(x.Pos(), "make(map) allocates")
			}
		case *ast.RangeStmt:
			if isMapType(p, x.X) {
				report(x.X.Pos(), "map iteration is unordered and cache-hostile")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && inLoop(x.Pos()) && isStringExpr(p, x) {
				report(x.Pos(), "string concatenation in a loop allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && inLoop(x.Pos()) && len(x.Lhs) == 1 && isStringExpr(p, x.Lhs[0]) {
				report(x.Pos(), "string concatenation in a loop allocates")
			}
		case *ast.CompositeLit:
			if isMapType(p, x) {
				report(x.Pos(), "map literal allocates")
			}
		}
		return true
	})
	return out
}

// isMapType reports whether the expression's type is (underlying) a map.
func isMapType(p *Package, e ast.Expr) bool {
	if p.Info == nil {
		return false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isBuiltin(p *Package, id *ast.Ident) bool {
	if p.Info == nil {
		return true // degrade toward reporting
	}
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

func isStringExpr(p *Package, e ast.Expr) bool {
	if p.Info == nil {
		return false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// unhintedAppendTarget inspects `append(s, ...)` growth targets declared
// in the same function. It reports unhinted=true when s's declaration
// visibly lacks a capacity hint: `var s []T`, `s := []T{...}` or
// `s := make([]T, n)`. Parameters, fields, package-level slices and
// slices built by other calls are skipped — their capacity is the
// caller's contract, not this function's.
func unhintedAppendTarget(p *Package, fd *ast.FuncDecl, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 || p.Info == nil {
		return "", false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return "", false
	}
	declPos := obj.Pos()
	if declPos < fd.Body.Pos() || declPos >= fd.Body.End() {
		return "", false // parameter or outer declaration
	}
	unhinted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				lid, isID := lhs.(*ast.Ident)
				if !isID || lid.Pos() != declPos || i >= len(x.Rhs) {
					continue
				}
				unhinted = rhsLacksCapacity(x.Rhs[i])
				return false
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if name.Pos() != declPos {
					continue
				}
				if len(x.Values) == 0 {
					unhinted = true // var s []T
				} else if i < len(x.Values) {
					unhinted = rhsLacksCapacity(x.Values[i])
				}
				return false
			}
		}
		return true
	})
	return id.Name, unhinted
}

// rhsLacksCapacity reports whether a slice declaration's right-hand side
// visibly lacks a capacity hint.
func rhsLacksCapacity(rhs ast.Expr) bool {
	switch x := rhs.(type) {
	case *ast.CompositeLit:
		return true // []T{...}: capacity is the literal's length
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
			return len(x.Args) < 3
		}
		return false // built elsewhere: capacity unknown, not our call
	default:
		return false
	}
}
