package arch

import (
	"fmt"
	"go/ast"
	"go/types"
)

// servingLayers are the layers that serve subscribers: the brokers, the
// router and the transports.
var servingLayers = map[string]bool{"service": true, "transport": true}

// CheckEngineOwners verifies that among the serving packages only those
// marked EngineOwner construct a core.Engine: call a package-level
// function of internal/core that returns one, or build one with a
// composite literal or new. Every other serving package works with an
// engine it is handed, so there is one place per node type where an
// engine's configuration is decided.
func CheckEngineOwners(mod *Module, policy Policy) []Finding {
	corePath := mod.Path + "/internal/core"
	var out []Finding
	for _, p := range mod.Packages {
		rule := policy.Packages[mod.rel(p.ImportPath)]
		if !servingLayers[rule.Layer] || rule.EngineOwner || p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var what string
				switch x := n.(type) {
				case *ast.CallExpr:
					what = engineConstructor(p.Info, x, corePath)
				case *ast.CompositeLit:
					if isEngine(p.Info.TypeOf(x), corePath) {
						what = "a core.Engine literal"
					}
				}
				if what != "" {
					out = append(out, Finding{
						Pos: mod.Fset.Position(n.Pos()), Rule: "engine-owner", Pkg: p.ImportPath,
						Msg: fmt.Sprintf("%s constructs an engine with %s; only the engine-owning serving packages may (internal/arch/policy.go EngineOwner)", mod.rel(p.ImportPath), what),
					})
				}
				return true
			})
		}
	}
	return out
}

// engineConstructor names the engine a call constructs, or returns "".
func engineConstructor(info *types.Info, call *ast.CallExpr, corePath string) string {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return ""
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		if obj.Name() == "new" && isEngine(info.TypeOf(call), corePath) {
			return "new(core.Engine)"
		}
	case *types.Func:
		sig := obj.Type().(*types.Signature)
		if obj.Pkg() == nil || obj.Pkg().Path() != corePath || sig.Recv() != nil {
			return ""
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if isEngine(sig.Results().At(i).Type(), corePath) {
				return "core." + obj.Name()
			}
		}
	}
	return ""
}

// isEngine reports whether t is core.Engine or a pointer to it.
func isEngine(t types.Type, corePath string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == corePath && obj.Name() == "Engine"
}
