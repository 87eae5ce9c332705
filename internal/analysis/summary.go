package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function dataflow summaries over the call
// graph: the facts the interprocedural analyzers consume. Each summary
// is local evidence (one walk of the function's own body) plus a
// module-wide fixpoint that propagates the transitive facts — a
// function that hands its parameter to a mutating callee mutates that
// parameter, a runner that invokes its callback inside a spawned worker
// runs that callback on a goroutine, a wrapper returning a shared-view
// accessor result returns a shared view.

// AllocSite is one statically counted heap-allocation site.
type AllocSite struct {
	Pos  token.Pos
	Kind string // "make(map)", "make(slice)", "make(chan)", "new", "&composite", "map literal", "slice literal", "closure", "append", "iface-box"
}

// Summary is one function's dataflow facts.
type Summary struct {
	// Allocs lists the allocation sites in the function's own body
	// (nested literals report their own).
	Allocs []AllocSite
	// MutatesParam reports, receiver-first (see FuncNode.ParamObjs),
	// whether calling the function may mutate state reachable from
	// that parameter: element writes, field writes through pointers,
	// in-place sorts, appends, copies, deletes, or passing it onward
	// to a mutating callee.
	MutatesParam []bool
	// SpawnsGoroutine reports a go statement in the function's own body.
	SpawnsGoroutine bool
	// CallsParam reports, receiver-first, whether the function calls
	// the parameter, itself or through a callee it forwards it to.
	CallsParam []bool
	// RunsParamInGoroutine reports, receiver-first, whether the
	// parameter is invoked on a goroutine this function (or a callee it
	// forwards the parameter to) spawns: called inside a spawned
	// literal, spawned as `go p(…)`, or passed to `go f(…)` where f
	// calls it. This is how sharedwrite finds worker bodies handed to
	// runners like dist.RunKernel.
	RunsParamInGoroutine []bool
	// ReturnsView reports that the function returns a shared snapshot
	// view (a shared-view accessor result or a re-slice of one),
	// making its own call sites taint sources for snapshotmut.
	ReturnsView bool
	// ViewSource names the originating accessor when ReturnsView.
	ViewSource string
	// Captured lists the free variables of a function literal (objects
	// declared outside the literal), in first-use order. Empty for
	// declared functions.
	Captured []types.Object
}

// Facts bundles the module-wide interprocedural state handed to every
// pass: the call graph, the per-function summaries, and the hotpath /
// coldpath directive tables.
type Facts struct {
	Graph     *CallGraph
	summaries map[*FuncNode]*Summary
	hotRoots  []*HotRoot
	// coldpath maps each coldpath-annotated function to its directive.
	coldpath map[*FuncNode]token.Pos
}

// SummaryOf returns fn's summary (never nil for graph nodes).
func (f *Facts) SummaryOf(n *FuncNode) *Summary {
	if s := f.summaries[n]; s != nil {
		return s
	}
	return &Summary{}
}

// HotRoots returns the module's hotpath-annotated roots in position order.
func (f *Facts) HotRoots() []*HotRoot { return f.hotRoots }

// IsColdPath reports whether n carries a coldpath directive.
func (f *Facts) IsColdPath(n *FuncNode) bool {
	_, ok := f.coldpath[n]
	return ok
}

// HotRoot is one //chordalvet:hotpath-annotated function.
type HotRoot struct {
	Node   *FuncNode
	Budget int
	// Pos is the directive's position (diagnostics anchor here).
	Pos token.Pos
}

// BuildFacts computes the full interprocedural state for a module.
func BuildFacts(pkgs []*Package) *Facts {
	cg := BuildCallGraph(pkgs)
	f := &Facts{
		Graph:     cg,
		summaries: make(map[*FuncNode]*Summary, len(cg.Order)),
		coldpath:  make(map[*FuncNode]token.Pos),
	}
	for _, n := range cg.Order {
		f.summaries[n] = localSummary(n)
	}
	f.fixpoint()
	f.collectDirectives()
	return f
}

// paramIndexOf maps parameter objects to their receiver-first index.
func paramIndexOf(n *FuncNode) map[types.Object]int {
	idx := make(map[types.Object]int)
	for i, obj := range n.ParamObjs() {
		if obj != nil {
			idx[obj] = i
		}
	}
	return idx
}

// rootIdentObj returns the base identifier object of an lvalue-ish
// chain (p, p.f, p[i], p[1:], *p, combinations), or nil.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// localSummary computes the non-transitive facts of one function body.
func localSummary(n *FuncNode) *Summary {
	s := &Summary{}
	info := n.Pkg.Info
	params := n.ParamObjs()
	s.MutatesParam = make([]bool, len(params))
	s.CallsParam = make([]bool, len(params))
	s.RunsParamInGoroutine = make([]bool, len(params))
	pidx := paramIndexOf(n)

	derived := collectParamDerived(n, pidx)
	// Composite literals already counted at their & operator must not
	// count again when visited as children.
	addrLits := make(map[*ast.CompositeLit]bool)
	markWrite := func(e ast.Expr) {
		for _, i := range writeTargets(info, derived, e) {
			s.MutatesParam[i] = true
		}
	}
	markAliasMutation := func(e ast.Expr) {
		// A mutating builtin/callee consuming an aliasing expression
		// (ident, selector, index, re-slice chain) mutates the params
		// its root derives from.
		if obj := rootIdentObj(info, e); obj != nil {
			for _, i := range derived[obj] {
				s.MutatesParam[i] = true
			}
		}
	}

	inspectOwn(n.Body, func(nd ast.Node) {
		switch v := nd.(type) {
		case *ast.GoStmt:
			s.SpawnsGoroutine = true
			markRunsInGoroutine(info, s, pidx, v)
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(v.X)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					s.Allocs = append(s.Allocs, AllocSite{Pos: v.Pos(), Kind: "&composite"})
					addrLits[lit] = true
				}
			}
		case *ast.CompositeLit:
			if addrLits[v] {
				return
			}
			if kind := compositeAllocKind(info, v); kind != "" {
				s.Allocs = append(s.Allocs, AllocSite{Pos: v.Pos(), Kind: kind})
			}
		case *ast.FuncLit:
			s.Allocs = appendClosureSite(info, s.Allocs, v)
		case *ast.CallExpr:
			if i, ok := pidx[identObj(info, v.Fun)]; ok {
				s.CallsParam[i] = true
			}
			summarizeCall(n, s, derived, markAliasMutation, v)
		}
	})
	if n.Lit != nil {
		s.Captured = capturedObjects(info, n.Lit)
	}
	s.ReturnsView, s.ViewSource = returnsViewLocal(n)
	return s
}

// markRunsInGoroutine records params invoked directly by a go statement
// (`go body(...)`) or called inside a spawned literal's body.
func markRunsInGoroutine(info *types.Info, s *Summary, pidx map[types.Object]int, g *ast.GoStmt) {
	markCallee := func(call *ast.CallExpr) {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if i, ok := pidx[info.ObjectOf(id)]; ok {
				s.RunsParamInGoroutine[i] = true
			}
		}
	}
	markCallee(g.Call)
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(nd ast.Node) bool {
			if call, ok := nd.(*ast.CallExpr); ok {
				markCallee(call)
			}
			return true
		})
	}
}

// collectParamDerived computes, to a local fixpoint, which parameters
// each local variable may alias: locals assigned from expressions whose
// root identifier is a parameter (or an already-derived local) inherit
// those parameter indices.
func collectParamDerived(n *FuncNode, pidx map[types.Object]int) map[types.Object][]int {
	info := n.Pkg.Info
	derived := make(map[types.Object][]int, len(pidx))
	for obj, i := range pidx {
		derived[obj] = append(derived[obj], i)
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
				if lhsObj == nil {
					continue
				}
				root := rootIdentObj(info, as.Rhs[i])
				if root == nil || root == lhsObj {
					continue
				}
				for _, pi := range derived[root] {
					if !containsInt(derived[lhsObj], pi) {
						derived[lhsObj] = append(derived[lhsObj], pi)
						changed = true
					}
				}
			}
		})
		if !changed {
			return derived
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// writeTargets returns the parameter indices a write to lhs mutates in
// a caller-visible way. Rebinding a plain identifier is invisible;
// element writes and pointer-field writes reach shared storage.
func writeTargets(info *types.Info, derived map[types.Object][]int, lhs ast.Expr) []int {
	rootDerived := func(e ast.Expr) []int {
		if obj := rootIdentObj(info, e); obj != nil {
			return derived[obj]
		}
		return nil
	}
	switch v := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return rootDerived(v.X)
	case *ast.StarExpr:
		return rootDerived(v.X)
	case *ast.SelectorExpr:
		// p.f = x is caller-visible only through a pointer; a value
		// receiver's field write stays in the local copy. Deeper chains
		// (p.f.g) recurse until a pointer or indexing step decides.
		if t := info.TypeOf(v.X); t != nil {
			if _, ok := t.Underlying().(*types.Pointer); ok {
				return rootDerived(v.X)
			}
		}
		return writeTargets(info, derived, v.X)
	}
	return nil
}

// summarizeCall records allocation sites and alias mutations evidenced
// by one call expression.
func summarizeCall(n *FuncNode, s *Summary, derived map[types.Object][]int, markAlias func(ast.Expr), call *ast.CallExpr) {
	info := n.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				s.Allocs = append(s.Allocs, AllocSite{Pos: call.Pos(), Kind: makeKind(info, call)})
			case "new":
				s.Allocs = append(s.Allocs, AllocSite{Pos: call.Pos(), Kind: "new"})
			case "append":
				if len(call.Args) > 0 {
					markAlias(call.Args[0])
				}
				s.Allocs = appendGrowSite(n, s.Allocs, call)
			case "copy", "clear", "delete":
				if len(call.Args) > 0 {
					markAlias(call.Args[0])
				}
			}
			return
		}
	}
	if isInPlaceSort(info, call) && len(call.Args) > 0 {
		markAlias(call.Args[0])
	}
	s.Allocs = appendBoxSites(info, s.Allocs, call)
}

func makeKind(info *types.Info, call *ast.CallExpr) string {
	if t := info.TypeOf(call); t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			return "make(map)"
		case *types.Chan:
			return "make(chan)"
		}
	}
	return "make(slice)"
}

// compositeAllocKind classifies a composite literal as an allocation
// site: map and slice literals allocate; struct values do not (their
// address-taken form is counted at the & operator).
func compositeAllocKind(info *types.Info, lit *ast.CompositeLit) string {
	t := info.TypeOf(lit)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "map literal"
	case *types.Slice:
		return "slice literal"
	}
	return ""
}

// appendClosureSite counts a function literal that captures variables:
// the closure context is heap-allocated at the literal expression.
func appendClosureSite(info *types.Info, allocs []AllocSite, lit *ast.FuncLit) []AllocSite {
	if len(capturedObjects(info, lit)) > 0 {
		allocs = append(allocs, AllocSite{Pos: lit.Pos(), Kind: "closure"})
	}
	return allocs
}

// capturedObjects returns the variables a literal references but does
// not declare: locals and parameters of enclosing functions (package-
// level state needs no closure context and is excluded).
func capturedObjects(info *types.Info, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true // package-level variable
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// preallocKey identifies an append destination for prealloc-evidence
// matching: a base object plus a selector-field chain rendered as text.
type preallocKey struct {
	obj   types.Object
	chain string
}

func preallocKeyOf(info *types.Info, e ast.Expr) (preallocKey, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(v); obj != nil {
			return preallocKey{obj: obj}, true
		}
	case *ast.SelectorExpr:
		base, ok := preallocKeyOf(info, v.X)
		if !ok {
			return preallocKey{}, false
		}
		if base.chain != "" {
			base.chain += "."
		}
		base.chain += v.Sel.Name
		return base, true
	}
	return preallocKey{}, false
}

// appendGrowSite counts an append call as an allocation site unless its
// destination shows prealloc evidence in the same body: a reslice
// assignment (`dst = dst[:0]`) or a make with explicit capacity — the
// repo's scratch-reuse idioms, which amortize to zero allocation.
func appendGrowSite(n *FuncNode, allocs []AllocSite, call *ast.CallExpr) []AllocSite {
	info := n.Pkg.Info
	if len(call.Args) == 0 {
		return allocs
	}
	key, ok := preallocKeyOf(info, call.Args[0])
	if ok && hasPreallocEvidence(n, key) {
		return allocs
	}
	return append(allocs, AllocSite{Pos: call.Pos(), Kind: "append"})
}

// hasPreallocEvidence scans the body for a reslice or capacity-make
// assigned to key.
func hasPreallocEvidence(n *FuncNode, key preallocKey) bool {
	info := n.Pkg.Info
	found := false
	inspectOwn(n.Body, func(nd ast.Node) {
		if found {
			return
		}
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i := range as.Lhs {
			lk, ok := preallocKeyOf(info, as.Lhs[i])
			if !ok || lk != key {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.SliceExpr:
				rk, ok := preallocKeyOf(info, rhs.X)
				if ok && rk == key {
					found = true
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "make" {
					if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && len(rhs.Args) == 3 {
						found = true
					}
				}
			}
		}
	})
	return found
}

// appendBoxSites counts interface-boxing allocations at a call: concrete
// non-pointer-shaped arguments passed to interface-typed parameters
// (including variadic ...any) escape to the heap when boxed.
func appendBoxSites(info *types.Info, allocs []AllocSite, call *ast.CallExpr) []AllocSite {
	fn := calleeFunc(info, call)
	if fn == nil {
		return allocs
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return allocs
	}
	params := sig.Params()
	if params.Len() == 0 {
		return allocs
	}
	for i, arg := range call.Args {
		j := i
		if sig.Variadic() && j >= params.Len()-1 {
			j = params.Len() - 1
		}
		if j >= params.Len() {
			break
		}
		pt := params.At(j).Type()
		if sig.Variadic() && j == params.Len()-1 {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if boxes(info, arg, pt) {
			allocs = append(allocs, AllocSite{Pos: arg.Pos(), Kind: "iface-box"})
		}
	}
	return allocs
}

// boxes reports whether passing arg to a parameter of type pt converts
// a heap-boxing concrete value into an interface.
func boxes(info *types.Info, arg ast.Expr, pt types.Type) bool {
	if _, ok := pt.Underlying().(*types.Interface); !ok {
		return false
	}
	at := info.TypeOf(arg)
	if at == nil {
		return false
	}
	if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped or already an interface: no box
	}
	return true
}

// returnsViewLocal reports whether the function directly returns a
// shared-view accessor result (or a re-slice of one, possibly through a
// local). Transitive wrappers are resolved in the fixpoint.
func returnsViewLocal(n *FuncNode) (bool, string) {
	info := n.Pkg.Info
	// Local taint: variables assigned accessor results.
	tainted := make(map[types.Object]string)
	var viewExpr func(e ast.Expr) (string, bool)
	viewExpr = func(e ast.Expr) (string, bool) {
		switch v := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if src, ok := sharedAccessorCall(info, v); ok {
				return src, true
			}
		case *ast.Ident:
			if src, ok := tainted[info.ObjectOf(v)]; ok {
				return src, true
			}
		case *ast.SliceExpr:
			return viewExpr(v.X)
		}
		return "", false
	}
	for {
		changed := false
		inspectOwn(n.Body, func(nd ast.Node) {
			as, ok := nd.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i := range as.Lhs {
				src, isView := viewExpr(as.Rhs[i])
				if !isView {
					continue
				}
				if obj := identObj(info, as.Lhs[i]); obj != nil {
					if _, seen := tainted[obj]; !seen {
						tainted[obj] = src
						changed = true
					}
				}
			}
		})
		if !changed {
			break
		}
	}
	found, source := false, ""
	inspectOwn(n.Body, func(nd ast.Node) {
		ret, ok := nd.(*ast.ReturnStmt)
		if !ok || found {
			return
		}
		for _, res := range ret.Results {
			if src, ok := viewExpr(res); ok {
				found, source = true, src
				return
			}
		}
	})
	return found, source
}

// sharedAccessorCall reports whether call is a shared-view accessor
// (see sharedViewAccessors in snapshotmut.go) and names it.
func sharedAccessorCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	pkgName := ""
	if named.Obj().Pkg() != nil {
		pkgName = named.Obj().Pkg().Name()
	}
	key := [3]string{pkgName, named.Obj().Name(), fn.Name()}
	if sharedViewAccessors[key] {
		return pkgName + "." + named.Obj().Name() + "." + fn.Name(), true
	}
	return "", false
}

// fixpoint propagates the transitive summary facts until stable:
// MutatesParam through call arguments and receivers, CallsParam and
// RunsParamInGoroutine through forwarded callbacks, and ReturnsView
// through wrappers.
func (f *Facts) fixpoint() {
	for {
		changed := false
		for _, n := range f.Graph.Order {
			if f.propagateNode(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// calleeSummary resolves a call to its in-module callee node and
// summary; nil for external, dynamic, and unresolved calls.
func (f *Facts) calleeSummary(pkg *Package, call *ast.CallExpr) (*FuncNode, *Summary) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || isInterfaceMethod(fn) {
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			node := f.Graph.Lits[lit]
			return node, f.summaries[node]
		}
		return nil, nil
	}
	node := f.Graph.Funcs[fn]
	if node == nil {
		return nil, nil
	}
	return node, f.summaries[node]
}

// callArgExprs returns the receiver-first argument expressions of a
// call aligned with the callee's receiver-first parameter indices: for
// method calls, index 0 is the receiver expression. Variadic tails all
// map to the last parameter index via argParamIndex.
func callArgExprs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	fn := calleeFunc(pkg.Info, call)
	var out []ast.Expr
	if fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil) // method expression/value: no receiver expr
		}
	}
	out = append(out, call.Args...)
	return out
}

// argParamIndex maps a receiver-first argument position to the callee's
// receiver-first parameter index, folding variadic tails.
func argParamIndex(callee *FuncNode, argPos int) int {
	nparams := len(callee.ParamObjs())
	if nparams == 0 {
		return -1
	}
	if argPos >= nparams {
		return nparams - 1 // variadic tail
	}
	return argPos
}

// propagateNode recomputes n's transitive facts from its callees;
// reports whether anything changed.
func (f *Facts) propagateNode(n *FuncNode) bool {
	s := f.summaries[n]
	info := n.Pkg.Info
	pidx := paramIndexOf(n)
	derived := collectParamDerived(n, pidx)
	changed := false

	inspectOwn(n.Body, func(nd ast.Node) {
		call, ok := nd.(*ast.CallExpr)
		spawned := false
		if !ok {
			if g, ok := nd.(*ast.GoStmt); ok {
				call, spawned = g.Call, true
			} else {
				return
			}
		}
		callee, cs := f.calleeSummary(n.Pkg, call)
		if cs == nil {
			return
		}
		args := callArgExprs(n.Pkg, call)
		for pos, arg := range args {
			if arg == nil {
				continue
			}
			j := argParamIndex(callee, pos)
			if j < 0 {
				continue
			}
			if cs.MutatesParam[j] {
				if obj := rootIdentObj(info, arg); obj != nil {
					for _, pi := range derived[obj] {
						if !s.MutatesParam[pi] {
							s.MutatesParam[pi] = true
							changed = true
						}
					}
				}
			}
			pi, ok := pidx[identObj(info, arg)]
			if !ok {
				continue
			}
			if cs.CallsParam[j] && !s.CallsParam[pi] {
				s.CallsParam[pi] = true
				changed = true
			}
			// `go f(p)` where f calls p runs p on the spawned goroutine.
			if (cs.RunsParamInGoroutine[j] || spawned && cs.CallsParam[j]) && !s.RunsParamInGoroutine[pi] {
				s.RunsParamInGoroutine[pi] = true
				changed = true
			}
		}
	})

	// ReturnsView through wrappers: return g(...) where g returns a view.
	if !s.ReturnsView {
		inspectOwn(n.Body, func(nd ast.Node) {
			ret, ok := nd.(*ast.ReturnStmt)
			if !ok || s.ReturnsView {
				return
			}
			for _, res := range ret.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				if _, cs := f.calleeSummary(n.Pkg, call); cs != nil && cs.ReturnsView {
					s.ReturnsView = true
					s.ViewSource = cs.ViewSource
					changed = true
					return
				}
			}
		})
	}
	return changed
}

// collectDirectives parses //chordalvet:hotpath and //chordalvet:coldpath
// directives from function doc comments and the line directly above the
// declaration.
func (f *Facts) collectDirectives() {
	for _, n := range f.Graph.Order {
		if n.Decl == nil {
			continue
		}
		for _, c := range funcDirectiveComments(n) {
			if rest, ok := directiveText(c, "chordalvet:hotpath"); ok {
				budget, ok := parseBudget(rest)
				if ok {
					f.hotRoots = append(f.hotRoots, &HotRoot{Node: n, Budget: budget, Pos: c.Pos()})
				} else {
					// A malformed hotpath directive still registers the
					// root with budget -1; hotalloc reports it.
					f.hotRoots = append(f.hotRoots, &HotRoot{Node: n, Budget: -1, Pos: c.Pos()})
				}
			}
			if _, ok := directiveText(c, "chordalvet:coldpath"); ok {
				f.coldpath[n] = c.Pos()
			}
		}
	}
	sortHotRoots(f.Graph.Fset, f.hotRoots)
}

// funcDirectiveComments returns the comments attached to a declaration:
// its doc group, which Go associates with the comment block directly
// above the func keyword.
func funcDirectiveComments(n *FuncNode) []*ast.Comment {
	if n.Decl == nil || n.Decl.Doc == nil {
		return nil
	}
	return n.Decl.Doc.List
}

// directiveText matches a comment against a directive prefix and
// returns the remainder.
func directiveText(c *ast.Comment, prefix string) (string, bool) {
	text := c.Text
	if len(text) >= 2 && text[:2] == "//" {
		text = text[2:]
	}
	for len(text) > 0 && (text[0] == ' ' || text[0] == '\t') {
		text = text[1:]
	}
	if len(text) < len(prefix) || text[:len(prefix)] != prefix {
		return "", false
	}
	return text[len(prefix):], true
}

// parseBudget extracts N from " budget=N ..." directive text.
func parseBudget(rest string) (int, bool) {
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' })
	for _, fd := range fields {
		if len(fd) > 7 && fd[:7] == "budget=" {
			n := 0
			for _, ch := range fd[7:] {
				if ch < '0' || ch > '9' {
					return 0, false
				}
				n = n*10 + int(ch-'0')
			}
			return n, true
		}
	}
	return 0, false
}

func sortHotRoots(fset *token.FileSet, roots []*HotRoot) {
	for i := 1; i < len(roots); i++ {
		for j := i; j > 0; j-- {
			a, b := fset.Position(roots[j-1].Pos), fset.Position(roots[j].Pos)
			if a.Filename < b.Filename || (a.Filename == b.Filename && a.Offset <= b.Offset) {
				break
			}
			roots[j-1], roots[j] = roots[j], roots[j-1]
		}
	}
}
