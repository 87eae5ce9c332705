package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotMut flags in-place mutation of the shared slices handed out by
// the graph substrate's snapshot accessors. graph.Indexed is an immutable
// CSR snapshot shared by every worker in the pooled round engine, and
// graph.Graph.Neighbors returns a cached slice shared between callers;
// writing into either corrupts other readers (a data race under the
// pool) and silently desynchronizes the three execution schedules that
// the determinism cross-checks promise are bit-identical.
//
// Since the substrate rework the check is interprocedural, in both
// directions through the call graph:
//
//   - sources: a call to any module function whose summary says it
//     returns a shared view (a wrapper around an accessor, resolved
//     transitively) taints its result exactly like a direct accessor
//     call;
//   - sinks: passing a tainted view to a module function whose summary
//     says it mutates that parameter (element writes, in-place sorts,
//     appends, deletes — anywhere down its own call chain) is reported
//     at the call site, including method receivers.
//
// The intra-function checks (direct writes, sorts, appends, copies)
// remain as the base case.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc:  "in-place mutation of shared graph snapshot slices (Indexed views, cached Neighbors)",
	Run:  runSnapshotMut,
}

// sharedViewAccessors lists the methods whose results are shared
// read-only views, keyed by package name, type name, and method.
// Matching on names keeps the analyzer applicable to the testdata stubs.
var sharedViewAccessors = map[[3]string]bool{
	{"graph", "Graph", "Neighbors"}:         true,
	{"graph", "Indexed", "IDs"}:             true,
	{"graph", "Indexed", "NeighborIDs"}:     true,
	{"graph", "Indexed", "NeighborIndices"}: true,
	{"dist", "Context", "Neighbors"}:        true,
	// The CSR clique forest's rows: each pruning iteration builds one
	// forest that every decide worker reads concurrently, and the next
	// Builder.Build rewrites the storage these rows alias.
	{"cliquetree", "CSRForest", "Clique"}: true,
	{"cliquetree", "CSRForest", "Nbrs"}:   true,
	{"cliquetree", "CSRForest", "PhiRow"}: true,
}

func runSnapshotMut(pass *Pass) {
	forEachFunc(pass, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
		tainted := collectViewTaints(pass, body)
		viewExpr := func(e ast.Expr) (string, bool) {
			return taintedViewExpr(pass, tainted, e)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if src, ok := viewExpr(ix.X); ok {
							pass.Reportf(v.Pos(), "writes into the shared snapshot view from %s; these slices are read-only — copy before modifying", src)
						}
					}
				}
			case *ast.IncDecStmt:
				if ix, ok := ast.Unparen(v.X).(*ast.IndexExpr); ok {
					if src, ok := viewExpr(ix.X); ok {
						pass.Reportf(v.Pos(), "writes into the shared snapshot view from %s; these slices are read-only — copy before modifying", src)
					}
				}
			case *ast.CallExpr:
				reportMutatingCallee(pass, viewExpr, v)
				if len(v.Args) == 0 {
					return true
				}
				if isInPlaceSort(pass.Info, v) {
					if src, ok := viewExpr(v.Args[0]); ok {
						pass.Reportf(v.Pos(), "sorts the shared snapshot view from %s in place; these slices are read-only — copy before sorting", src)
					}
				}
				if isAppendCall(pass, v) {
					if src, ok := viewExpr(v.Args[0]); ok {
						pass.Reportf(v.Pos(), "appends onto the shared snapshot view from %s; spare capacity would be written in place — build a fresh slice instead", src)
					}
				}
				if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "copy" {
					if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
						if src, ok := viewExpr(v.Args[0]); ok {
							pass.Reportf(v.Pos(), "copies into the shared snapshot view from %s; these slices are read-only — allocate a destination instead", src)
						}
					}
				}
			}
			return true
		})
	})
}

// reportMutatingCallee is the interprocedural sink check: a tainted view
// handed (as argument or receiver) to a module function whose summary
// mutates that parameter.
func reportMutatingCallee(pass *Pass, viewExpr func(ast.Expr) (string, bool), call *ast.CallExpr) {
	if pass.Facts == nil || pass.Package == nil {
		return
	}
	callee, cs := pass.Facts.calleeSummary(pass.Package, call)
	if cs == nil {
		return
	}
	for pos, arg := range callArgExprs(pass.Package, call) {
		if arg == nil {
			continue
		}
		j := argParamIndex(callee, pos)
		if j < 0 || j >= len(cs.MutatesParam) || !cs.MutatesParam[j] {
			continue
		}
		if src, ok := viewExpr(arg); ok {
			pass.Reportf(call.Pos(), "passes the shared snapshot view from %s to %s, which mutates that parameter; copy before the call", src, callee.Name())
		}
	}
}

// collectViewTaints returns the local variables bound (possibly through
// re-slicing or further assignment) to a shared-view accessor result,
// mapped to a description of the originating accessor.
func collectViewTaints(pass *Pass, body *ast.BlockStmt) map[types.Object]string {
	tainted := make(map[types.Object]string)
	// Iterate to a fixpoint so chains like a := view(); b := a[1:] are
	// caught regardless of nesting.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				src, isView := taintedViewExpr(pass, tainted, as.Rhs[i])
				if !isView {
					continue
				}
				obj := identObj(pass.Info, as.Lhs[i])
				if obj == nil {
					continue
				}
				if _, seen := tainted[obj]; !seen {
					tainted[obj] = src
					changed = true
				}
			}
			return true
		})
		if !changed {
			return tainted
		}
	}
}

// taintedViewExpr reports whether e denotes a shared view: a direct
// accessor call, a call to a module function summarized as returning a
// view, a tainted variable, or a re-slice of any of those. The string
// names the originating accessor for diagnostics.
func taintedViewExpr(pass *Pass, tainted map[types.Object]string, e ast.Expr) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		pkgName, typeName, method := recvTypeName(pass, v)
		if sharedViewAccessors[[3]string{pkgName, typeName, method}] {
			return pkgName + "." + typeName + "." + method, true
		}
		if pass.Facts != nil && pass.Package != nil {
			if _, cs := pass.Facts.calleeSummary(pass.Package, v); cs != nil && cs.ReturnsView {
				return cs.ViewSource, true
			}
		}
	case *ast.Ident:
		if obj := pass.Info.ObjectOf(v); obj != nil {
			if src, ok := tainted[obj]; ok {
				return src, true
			}
		}
	case *ast.SliceExpr:
		return taintedViewExpr(pass, tainted, v.X)
	}
	return "", false
}
