package analysis

import (
	"go/ast"
	"go/types"
)

// SharedWrite guards the per-shard write discipline of the parallel
// kernels: a function literal that executes on a spawned goroutine may
// write into a captured slice only through an index that is provably
// worker-partitioned (derived from the literal's own parameters — the
// shard number or the [lo, hi) range handed to the worker), and may
// never write captured maps or rebind captured variables at all. This
// is the static counterpart of the determinism worker-sweep suites:
// those catch a cross-shard write only when the schedule happens to
// interleave it; this flags the write shape itself.
//
// A literal "executes on a goroutine" when it is spawned directly
// (`go func(...){...}(...)`) or passed as an argument to a function
// whose summary says it runs that parameter on a goroutine it spawns —
// the dist.RunKernel runner idiom, resolved through the call graph's
// RunsParamInGoroutine fixpoint.
var SharedWrite = &Analyzer{
	Name:      "sharedwrite",
	Doc:       "worker-goroutine writes to captured slices/maps that are not provably index-partitioned",
	RunModule: runSharedWrite,
}

func runSharedWrite(mp *ModulePass) {
	facts := mp.Facts
	workers := collectWorkerLits(facts)
	for _, n := range facts.Graph.Order {
		if n.Lit == nil || !workers[n] {
			continue
		}
		checkWorkerLit(mp, n)
	}
}

// collectWorkerLits returns the literal nodes that may execute on a
// spawned goroutine: direct go-statement spawns plus literals passed to
// parameters with RunsParamInGoroutine.
func collectWorkerLits(facts *Facts) map[*FuncNode]bool {
	workers := make(map[*FuncNode]bool)
	for _, n := range facts.Graph.Order {
		for _, sp := range n.Spawned {
			if sp.Lit != nil {
				workers[sp] = true
			}
		}
		// Literal arguments bound to goroutine-running parameters.
		inspectOwn(n.Body, func(nd ast.Node) {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return
			}
			callee, _ := facts.calleeSummary(n.Pkg, call)
			if callee == nil {
				return
			}
			cs := facts.SummaryOf(callee)
			args := callArgExprs(n.Pkg, call)
			for pos, arg := range args {
				if arg == nil {
					continue
				}
				j := argParamIndex(callee, pos)
				if j < 0 || !cs.RunsParamInGoroutine[j] {
					continue
				}
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					if ln := facts.Graph.LitNode(lit); ln != nil {
						workers[ln] = true
					}
				}
			}
		})
	}
	return workers
}

// checkWorkerLit inspects one worker literal's own body for unsafe
// writes to captured state.
func checkWorkerLit(mp *ModulePass, n *FuncNode) {
	info := n.Pkg.Info
	captured := make(map[types.Object]bool)
	for _, obj := range mp.Facts.SummaryOf(n).Captured {
		captured[obj] = true
	}
	if len(captured) == 0 {
		return
	}
	// Worker-local objects: the literal's parameters plus locals derived
	// from them (loop variables over [lo, hi), shard-indexed reads).
	local := workerLocalObjects(n)

	partitioned := func(index ast.Expr) bool {
		ok := false
		ast.Inspect(index, func(nd ast.Node) bool {
			if id, isIdent := nd.(*ast.Ident); isIdent {
				if obj := info.ObjectOf(id); obj != nil && local[obj] {
					ok = true
					return false
				}
			}
			return true
		})
		return ok
	}

	report := func(pos ast.Node, base ast.Expr, what string) {
		name := "captured state"
		if obj := rootIdentObj(info, base); obj != nil {
			name = obj.Name()
		}
		mp.Reportf(pos.Pos(), "worker goroutine %s %s; workers may only write per-shard slots indexed by their own parameters — pass a shard/range argument or use per-worker scratch", what, name)
	}

	checkWrite := func(stmt ast.Node, lhs ast.Expr) {
		switch v := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(v); obj != nil && captured[obj] {
				report(stmt, v, "rebinds the captured variable")
			}
		case *ast.IndexExpr:
			root := rootIdentObj(info, v.X)
			if root == nil || !captured[root] {
				return
			}
			if t := info.TypeOf(v.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(stmt, v.X, "writes the captured map")
					return
				}
			}
			if !partitioned(v.Index) {
				report(stmt, v.X, "writes the captured slice at a non-partitioned index")
			}
		}
	}

	inspectOwn(n.Body, func(nd ast.Node) {
		switch v := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				checkWrite(v, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(v, v.X)
		case *ast.CallExpr:
			// delete(m, k) and clear(x) on captured containers.
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && len(v.Args) > 0 {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && (id.Name == "delete" || id.Name == "clear") {
					if obj := rootIdentObj(info, v.Args[0]); obj != nil && captured[obj] {
						report(v, v.Args[0], "calls "+id.Name+" on the captured container")
					}
				}
			}
		}
	})
}

// workerLocalObjects returns the literal's parameters and the locals
// transitively initialized from them.
func workerLocalObjects(n *FuncNode) map[types.Object]bool {
	info := n.Pkg.Info
	local := make(map[types.Object]bool)
	for _, obj := range n.ParamObjs() {
		if obj != nil {
			local[obj] = true
		}
	}
	for {
		changed := false
		inspectOwn(n.Body, func(nd ast.Node) {
			as, ok := nd.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i := range as.Lhs {
				lhsObj := identObj(info, as.Lhs[i])
				if lhsObj == nil || local[lhsObj] {
					continue
				}
				// RHS mentions a worker-local object anywhere.
				dep := false
				ast.Inspect(as.Rhs[i], func(e ast.Node) bool {
					if id, isIdent := e.(*ast.Ident); isIdent {
						if obj := info.ObjectOf(id); obj != nil && local[obj] {
							dep = true
							return false
						}
					}
					return true
				})
				if dep {
					local[lhsObj] = true
					changed = true
				}
			}
		})
		if !changed {
			return local
		}
	}
}
