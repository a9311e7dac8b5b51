package arch

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CheckLockDiscipline flags blocking operations lexically between
// Lock()/Unlock() (or RLock()/RUnlock()) of the same sync mutex — the
// exact shape of the PR 5 overlay inbox-cycle deadlock, where a broker
// blocked on a channel send while holding its own state lock and the peer
// it was sending to was blocked the same way in reverse.
//
// Blocking operations: channel sends, channel receives, selects without a
// default case, ranging over a channel, sync.WaitGroup.Wait and
// time.Sleep. A select WITH a default is non-blocking and exempt, as is
// sync.Cond.Wait (it releases the mutex it guards — that is its job).
//
// The analysis is lexical and per-function: a Lock opens a region that
// the next Unlock of the same mutex expression closes (a deferred Unlock,
// or a missing one, extends the region to the end of the function), and
// nested function literals are analysed as their own functions — a
// goroutine spawned under the lock does not block the holder.
func CheckLockDiscipline(mod *Module) []Finding {
	var out []Finding
	for _, p := range mod.Packages {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch x := n.(type) {
				case *ast.FuncDecl:
					body = x.Body
				case *ast.FuncLit:
					body = x.Body
				}
				if body != nil {
					out = append(out, checkLockBody(mod, p, body)...)
				}
				return true
			})
		}
	}
	return out
}

type lockEvKind int

const (
	evLock lockEvKind = iota
	evUnlock
	evDeferUnlock
	evBlocking
)

type lockEv struct {
	pos  token.Pos
	end  token.Pos
	kind lockEvKind
	key  string // mutex expression ("b.mu"), ":r"-suffixed for RLock pairs
	desc string // blocking-operation description
}

// checkLockBody analyses one function body (excluding nested literals).
func checkLockBody(mod *Module, p *Package, body *ast.BlockStmt) []Finding {
	evs := collectLockEvents(p, body)
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })

	// Pair each Lock with the next Unlock of the same key; deferred or
	// missing Unlocks hold to the end of the body.
	type region struct{ from, to token.Pos }
	var regions []struct {
		region
		key string
		at  token.Position
	}
	used := make([]bool, len(evs))
	for i, ev := range evs {
		if ev.kind != evLock {
			continue
		}
		to := body.End()
		for j := i + 1; j < len(evs); j++ {
			if used[j] || evs[j].key != ev.key {
				continue
			}
			if evs[j].kind == evUnlock {
				used[j] = true
				to = evs[j].pos
				break
			}
			if evs[j].kind == evDeferUnlock {
				used[j] = true
				break // deferred: held to function end
			}
		}
		regions = append(regions, struct {
			region
			key string
			at  token.Position
		}{region{ev.end, to}, ev.key, mod.Fset.Position(ev.pos)})
	}
	if len(regions) == 0 {
		return nil
	}

	var out []Finding
	for _, ev := range evs {
		if ev.kind != evBlocking {
			continue
		}
		for _, r := range regions {
			if ev.pos <= r.from || ev.pos >= r.to {
				continue
			}
			out = append(out, Finding{
				Pos: mod.Fset.Position(ev.pos), Rule: "lock-blocking", Pkg: p.ImportPath,
				Msg: fmt.Sprintf("%s while holding %s (locked at line %d); a blocked holder wedges every other user of the mutex — queue (router.Queue), use a default case, or move the operation outside the lock",
					ev.desc, mutexName(r.key), r.at.Line),
			})
			break
		}
	}
	return out
}

// mutexName strips the read-mode tag for messages.
func mutexName(key string) string {
	if len(key) > 2 && key[len(key)-2:] == ":r" {
		return key[:len(key)-2] + " (read lock)"
	}
	return key
}

// collectLockEvents gathers lock/unlock/blocking events in one body,
// skipping nested function literals and the guard statements of select
// clauses (a select's blocking behaviour is reported on the select
// itself, and only when it has no default).
func collectLockEvents(p *Package, body *ast.BlockStmt) []lockEv {
	// Positions to suppress: select comm clauses (their send/receive is
	// select machinery, not an independent operation) and nested literals.
	type posRange struct{ from, to token.Pos }
	var skips []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if n != body { // the body itself may be a literal's body
				skips = append(skips, posRange{x.Pos(), x.End()})
				return false
			}
		case *ast.SelectStmt:
			for _, s := range x.Body.List {
				if c, ok := s.(*ast.CommClause); ok && c.Comm != nil {
					skips = append(skips, posRange{c.Comm.Pos(), c.Comm.End()})
				}
			}
		}
		return true
	})
	skipped := func(pos token.Pos) bool {
		for _, r := range skips {
			if pos >= r.from && pos < r.to {
				return true
			}
		}
		return false
	}

	var evs []lockEv
	handledCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if skipped(n.Pos()) {
			return true // descend: clause bodies live inside select ranges
		}
		switch x := n.(type) {
		case *ast.DeferStmt:
			if kind, key, ok := classifyLockCall(p, x.Call); ok && kind == evUnlock {
				handledCalls[x.Call] = true
				evs = append(evs, lockEv{pos: x.Pos(), end: x.End(), kind: evDeferUnlock, key: key})
			}
		case *ast.CallExpr:
			if handledCalls[x] {
				return true
			}
			if kind, key, ok := classifyLockCall(p, x); ok {
				evs = append(evs, lockEv{pos: x.Pos(), end: x.End(), kind: kind, key: key})
			} else if desc, blocking := classifyBlockingCall(p, x); blocking {
				evs = append(evs, lockEv{pos: x.Pos(), end: x.End(), kind: evBlocking, desc: desc})
			}
		case *ast.SendStmt:
			evs = append(evs, lockEv{pos: x.Pos(), end: x.End(), kind: evBlocking, desc: "blocking channel send"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				evs = append(evs, lockEv{pos: x.Pos(), end: x.End(), kind: evBlocking, desc: "blocking channel receive"})
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, s := range x.Body.List {
				if c, ok := s.(*ast.CommClause); ok && c.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				evs = append(evs, lockEv{pos: x.Pos(), end: x.End(), kind: evBlocking, desc: "blocking select (no default case)"})
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					evs = append(evs, lockEv{pos: x.Pos(), end: x.X.End(), kind: evBlocking, desc: "blocking range over channel"})
				}
			}
		}
		return true
	})
	return evs
}

// classifyLockCall recognises m.Lock/Unlock/RLock/RUnlock on sync.Mutex
// and sync.RWMutex receivers (including embedded ones). The key is the
// receiver expression text, so distinct mutexes get distinct regions.
func classifyLockCall(p *Package, call *ast.CallExpr) (kind lockEvKind, key string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return 0, "", false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" && name != "RLock" && name != "RUnlock" {
		return 0, "", false
	}
	if !isSyncMethod(p, sel, "Mutex") && !isSyncMethod(p, sel, "RWMutex") {
		return 0, "", false
	}
	key = types.ExprString(sel.X)
	if name == "RLock" || name == "RUnlock" {
		key += ":r"
	}
	if name == "Lock" || name == "RLock" {
		return evLock, key, true
	}
	return evUnlock, key, true
}

// classifyBlockingCall recognises known-blocking calls that do not
// release any mutex: sync.WaitGroup.Wait and time.Sleep. sync.Cond.Wait
// is deliberately exempt.
func classifyBlockingCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	if sel.Sel.Name == "Wait" && isSyncMethod(p, sel, "WaitGroup") {
		return "blocking sync.WaitGroup.Wait", true
	}
	if sel.Sel.Name == "Sleep" && usesPackage(p, sel, "time") {
		return "blocking time.Sleep", true
	}
	return "", false
}

// isSyncMethod reports whether the selector resolves to a method of the
// named sync type.
func isSyncMethod(p *Package, sel *ast.SelectorExpr, typeName string) bool {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// usesPackage reports whether the selector's identifier resolves into the
// given package.
func usesPackage(p *Package, sel *ast.SelectorExpr, pkgPath string) bool {
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
