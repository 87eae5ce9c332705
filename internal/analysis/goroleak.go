package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak requires every goroutine spawned in module code to carry
// visible join evidence. The engine's round barrier is the determinism
// linchpin: a worker that outlives its round can write into buffers the
// next round has already repartitioned, and a leaked server goroutine
// keeps the process alive past dist.Run. Accepted evidence, checked
// per go statement:
//
//   - WaitGroup join: the spawned body calls Done on some object and the
//     enclosing function calls Wait on the same object;
//   - channel join: the spawned body sends on or closes a channel the
//     enclosing function receives from (<-ch or range ch);
//   - ownership transfer: the Done/send target is not declared inside
//     the enclosing function (a parameter, receiver field, or captured
//     outer state) — the join is the owner's responsibility and is
//     checked at the owner's own spawn sites.
//
// A goroutine with no signal at all (the fire-and-forget `go func() {
// _ = srv.Serve(ln) }()` shape) is reported; intentional daemons take a
// chordalvet:ignore directive with a written justification.
var GoroLeak = &Analyzer{
	Name:      "goroleak",
	Doc:       "goroutines spawned without WaitGroup/channel join evidence in the enclosing function",
	RunModule: runGoroLeak,
}

// joinSignal is one join handle observed in a spawned body: an object
// the goroutine calls Done on, or a channel it sends on / closes.
type joinSignal struct {
	obj  types.Object
	kind string // "WaitGroup.Done", "channel send", "close"
}

func runGoroLeak(mp *ModulePass) {
	for _, n := range mp.Facts.Graph.Order {
		node := n
		inspectOwn(node.Body, func(nd ast.Node) {
			g, ok := nd.(*ast.GoStmt)
			if !ok {
				return
			}
			if why, ok := goStmtJoinless(mp.Facts, node, g); !ok {
				mp.Reportf(g.Pos(), "goroutine has no join evidence (%s); add a WaitGroup Done/Wait pair or a channel handoff, or justify the daemon with a chordalvet:ignore directive", why)
			}
		})
	}
}

// goStmtJoinless checks one go statement for join evidence. It returns
// ok=true when the goroutine is provably joined (or joining is the
// owner's responsibility), otherwise a short reason.
func goStmtJoinless(facts *Facts, encl *FuncNode, g *ast.GoStmt) (string, bool) {
	info := encl.Pkg.Info
	signals := spawnSignals(facts, encl, g)
	if len(signals) == 0 {
		return "the spawned body neither calls Done nor sends on a channel", false
	}
	waited, received := enclosingJoins(info, encl)
	for _, sig := range signals {
		if sig.obj == nil {
			continue
		}
		switch sig.kind {
		case "WaitGroup.Done":
			if waited[sig.obj] {
				return "", true
			}
		default: // channel send / close
			if received[sig.obj] {
				return "", true
			}
		}
		// Ownership transfer: the handle is not declared inside this
		// function, so the declaring scope joins it.
		if !declaredWithin(sig.obj, encl) {
			return "", true
		}
	}
	return "the spawned body signals " + signals[0].kind + " but the enclosing function never waits on that handle", false
}

// spawnSignals collects the join handles a spawned call may touch. For
// a literal, its full body is scanned (including nested literals — a
// deferred Done counts wherever it sits). For a direct `go f(args)`,
// WaitGroup- or channel-typed arguments count as handles, and an
// in-module callee's body is scanned with its parameters mapped back to
// the caller's argument objects.
func spawnSignals(facts *Facts, encl *FuncNode, g *ast.GoStmt) []joinSignal {
	info := encl.Pkg.Info
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return bodySignals(info, lit.Body, nil)
	}
	var out []joinSignal
	// Handle-typed arguments (and method receiver) of a direct spawn.
	for _, arg := range callArgExprs(encl.Pkg, g.Call) {
		if arg == nil {
			continue
		}
		obj := rootIdentObj(info, arg)
		if obj == nil {
			continue
		}
		if kind := handleKind(info.TypeOf(arg)); kind != "" {
			out = append(out, joinSignal{obj: obj, kind: kind})
		}
	}
	if len(out) > 0 {
		return out
	}
	// In-module callee: scan its body, mapping its own handles back to
	// the caller's arguments where possible; handles it owns internally
	// are its own problem and make the spawn joined from here.
	if callee, _ := facts.calleeSummary(encl.Pkg, g.Call); callee != nil {
		remap := make(map[types.Object]types.Object)
		args := callArgExprs(encl.Pkg, g.Call)
		for pos, p := range callee.ParamObjs() {
			if p == nil || pos >= len(args) || args[pos] == nil {
				continue
			}
			if obj := rootIdentObj(info, args[pos]); obj != nil {
				remap[p] = obj
			}
		}
		return bodySignals(callee.Pkg.Info, callee.Body, remap)
	}
	return nil
}

// handleKind classifies a type as a join handle.
func handleKind(t types.Type) string {
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return "channel send"
	}
	u := t
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem()
	}
	if named, ok := u.(*types.Named); ok {
		if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" {
			return "WaitGroup.Done"
		}
	}
	return ""
}

// bodySignals scans a spawned body for Done calls, channel sends, and
// closes. remap translates the scanned body's objects (callee params)
// back to the caller's objects; nil entries pass through unchanged.
func bodySignals(info *types.Info, body *ast.BlockStmt, remap map[types.Object]types.Object) []joinSignal {
	translate := func(obj types.Object) types.Object {
		if remap != nil {
			if o, ok := remap[obj]; ok {
				return o
			}
		}
		return obj
	}
	var out []joinSignal
	ast.Inspect(body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.SendStmt:
			if obj := rootIdentObj(info, v.Chan); obj != nil {
				out = append(out, joinSignal{obj: translate(obj), kind: "channel send"})
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if obj := rootIdentObj(info, sel.X); obj != nil {
					out = append(out, joinSignal{obj: translate(obj), kind: "WaitGroup.Done"})
				}
			}
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "close" && len(v.Args) == 1 {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					if obj := rootIdentObj(info, v.Args[0]); obj != nil {
						out = append(out, joinSignal{obj: translate(obj), kind: "close"})
					}
				}
			}
		}
		return true
	})
	return out
}

// enclosingJoins collects the objects the enclosing function waits on:
// Wait receivers and channels it receives from (unary <-ch or range).
// The whole lexical body is scanned — a Wait inside a deferred literal
// still joins.
func enclosingJoins(info *types.Info, encl *FuncNode) (waited, received map[types.Object]bool) {
	waited = make(map[types.Object]bool)
	received = make(map[types.Object]bool)
	ast.Inspect(encl.Body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if obj := rootIdentObj(info, sel.X); obj != nil {
					waited[obj] = true
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				if obj := rootIdentObj(info, v.X); obj != nil {
					received[obj] = true
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					if obj := rootIdentObj(info, v.X); obj != nil {
						received[obj] = true
					}
				}
			}
		}
		return true
	})
	return waited, received
}

// declaredWithin reports whether obj is declared inside the function's
// own body. Parameters deliberately count as outside: a WaitGroup or
// channel received as a parameter (or read off a receiver field) is the
// caller's handle, and the join obligation lives at the owner's scope.
func declaredWithin(obj types.Object, n *FuncNode) bool {
	return obj.Pos() >= n.Body.Pos() && obj.Pos() < n.Body.End()
}
