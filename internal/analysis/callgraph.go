package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural half of chordalvet: a module-wide
// call graph built from the same go/types information the per-file
// analyzers already use. The determinism and allocation invariants the
// repo guards stopped being per-function properties when PRs 5–6 moved
// the decide, peel, flood-assembly, correction, and MIS stages onto
// sharded CSR kernels — a snapshot mutation or a fresh map allocation
// three calls below a worker loop erodes exactly the same guarantees as
// one written inline. The graph resolves three kinds of call:
//
//   - static calls: plain function and concrete-method calls, resolved
//     through types.Info to their *types.Func;
//   - dynamic calls: interface-method calls, resolved through method
//     sets to every in-module named type implementing the interface
//     (class-hierarchy style, an over-approximation);
//   - function values: flow-insensitive tracking of function literals
//     and named functions through assignments and composite-literal
//     fields into the variables and fields they are stored in; a call
//     through such an object resolves to everything recorded as flowing
//     into it. A function value passed as an argument to an in-module
//     declared function is resolved per call site instead: it is an
//     edge of the calling function, and the callee's call through its
//     parameter adds no edge, so one runner shared by a hot kernel and
//     a cold caller never merges their callbacks into either region.
//
// Known soundness gaps (documented in DESIGN.md): function values
// returned from functions, stored in slices/maps/channels, or passed
// through untracked interfaces are not followed, and reflection is
// invisible. The gaps are deliberate — every hot path in this repo
// wires its workers through direct assignments and call arguments,
// which the flow tracking covers exactly.

// FuncNode is one function in the module call graph: a declared
// function or method, or a function literal.
type FuncNode struct {
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Pkg is the package the function's body lives in.
	Pkg *Package
	// Body is the function body (never nil for graph nodes).
	Body *ast.BlockStmt

	// Static holds resolved static-call, function-value-call, and
	// deferred-call targets in first-occurrence order.
	Static []*FuncNode
	// Dynamic holds interface-dispatch candidate targets.
	Dynamic []*FuncNode
	// Spawned holds targets launched with a go statement in this body.
	Spawned []*FuncNode

	summary *Summary
}

// Name returns a stable human-readable name: the package-qualified
// function or method name, or file:line for a literal.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		recv := n.Obj.Type().(*types.Signature).Recv()
		if recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + n.Obj.Name()
			}
		}
		return n.Obj.Name()
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("func@%s:%d", shortFile(pos.Filename), pos.Line)
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// ParamObjs returns the node's parameter objects in receiver-first
// order: for methods, index 0 is the receiver and declared parameters
// follow; unnamed parameters contribute nil entries so indices stay
// aligned with the signature.
func (n *FuncNode) ParamObjs() []types.Object {
	var out []types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range f.Names {
				out = append(out, n.Pkg.Info.ObjectOf(name))
			}
		}
	}
	if n.Decl != nil {
		collect(n.Decl.Recv)
		collect(n.Decl.Type.Params)
	} else {
		collect(n.Lit.Type.Params)
	}
	return out
}

// CallGraph is the module-wide call graph plus the function-value flow
// table it was built from.
type CallGraph struct {
	Fset *token.FileSet
	// Funcs indexes declared functions and methods.
	Funcs map[*types.Func]*FuncNode
	// Lits indexes function literals.
	Lits map[*ast.FuncLit]*FuncNode
	// Order lists every node in deterministic (position) order.
	Order []*FuncNode
	// flows records which function nodes flow into each variable or
	// field object.
	flows map[types.Object][]*FuncNode
}

// LitNode returns the graph node of a function literal.
func (cg *CallGraph) LitNode(lit *ast.FuncLit) *FuncNode { return cg.Lits[lit] }

// BuildCallGraph constructs the module call graph over the loaded
// packages. The packages must share one *token.FileSet (LoadModule
// guarantees this).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{
		Funcs: make(map[*types.Func]*FuncNode),
		Lits:  make(map[*ast.FuncLit]*FuncNode),
		flows: make(map[types.Object][]*FuncNode),
	}
	if len(pkgs) > 0 {
		cg.Fset = pkgs[0].Fset
	}
	// Phase 1: one node per function body, in file order (deterministic:
	// LoadModule visits packages in topological order over sorted paths
	// and files in directory order).
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.FuncDecl:
					if v.Body == nil {
						return true
					}
					fn, _ := pkg.Info.ObjectOf(v.Name).(*types.Func)
					if fn == nil {
						return true
					}
					node := &FuncNode{Obj: fn, Decl: v, Pkg: pkg, Body: v.Body}
					cg.Funcs[fn] = node
					cg.Order = append(cg.Order, node)
				case *ast.FuncLit:
					node := &FuncNode{Lit: v, Pkg: pkg, Body: v.Body}
					cg.Lits[v] = node
					cg.Order = append(cg.Order, node)
				}
				return true
			})
		}
	}
	// Phase 2: function-value flows into objects.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			cg.collectFlows(pkg, file)
		}
	}
	// Phase 3: edges.
	interfaceImpls := collectInterfaceImpls(pkgs, cg)
	for _, node := range cg.Order {
		cg.buildEdges(node, interfaceImpls)
	}
	return cg
}

// funcValueNodes resolves an expression used as a value to the function
// nodes it may denote: a function literal, a named function or method
// (including method values), or nothing for non-function expressions.
func (cg *CallGraph) funcValueNodes(pkg *Package, e ast.Expr) []*FuncNode {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := cg.Lits[v]; n != nil {
			return []*FuncNode{n}
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.ObjectOf(v).(*types.Func); ok {
			if n := cg.Funcs[fn]; n != nil {
				return []*FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.ObjectOf(v.Sel).(*types.Func); ok {
			if n := cg.Funcs[fn]; n != nil {
				return []*FuncNode{n}
			}
		}
	}
	return nil
}

// recordFlow appends nodes to obj's flow set, deduplicating.
func (cg *CallGraph) recordFlow(obj types.Object, nodes []*FuncNode) {
	if obj == nil || len(nodes) == 0 {
		return
	}
	have := cg.flows[obj]
	for _, n := range nodes {
		dup := false
		for _, h := range have {
			if h == n {
				dup = true
				break
			}
		}
		if !dup {
			have = append(have, n)
		}
	}
	cg.flows[obj] = have
}

// collectFlows scans one file for function values stored into objects:
// assignments, var specs, and keyed and positional struct literals.
func (cg *CallGraph) collectFlows(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i := range v.Lhs {
				nodes := cg.funcValueNodes(pkg, v.Rhs[i])
				if len(nodes) == 0 {
					continue
				}
				switch lhs := ast.Unparen(v.Lhs[i]).(type) {
				case *ast.Ident:
					cg.recordFlow(pkg.Info.ObjectOf(lhs), nodes)
				case *ast.SelectorExpr:
					cg.recordFlow(pkg.Info.ObjectOf(lhs.Sel), nodes)
				}
			}
		case *ast.ValueSpec:
			for i, name := range v.Names {
				if i < len(v.Values) {
					cg.recordFlow(pkg.Info.ObjectOf(name), cg.funcValueNodes(pkg, v.Values[i]))
				}
			}
		case *ast.CompositeLit:
			cg.collectLitFlows(pkg, v)
		}
		return true
	})
}

// collectLitFlows binds function values in struct composite literals to
// their field objects, for both keyed and positional forms.
func (cg *CallGraph) collectLitFlows(pkg *Package, lit *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				cg.recordFlow(pkg.Info.ObjectOf(key), cg.funcValueNodes(pkg, kv.Value))
			}
			continue
		}
		if i < st.NumFields() {
			cg.recordFlow(st.Field(i), cg.funcValueNodes(pkg, el))
		}
	}
}

// callTargetFunc resolves a call expression to its static *types.Func
// callee: a plain function, a concrete method, or an interface method
// (the caller distinguishes via the receiver type). Indirect calls and
// builtins return nil.
func callTargetFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.ObjectOf(id).(*types.Func)
	return fn
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// implKey identifies one interface method for dispatch resolution.
type implKey struct {
	iface *types.Interface
	name  string
}

// collectInterfaceImpls maps every interface method appearing as a call
// target to the in-module concrete methods that may satisfy it. Named
// types are gathered in deterministic order (packages are already
// ordered; scope names are sorted).
func collectInterfaceImpls(pkgs []*Package, cg *CallGraph) map[implKey][]*FuncNode {
	var named []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted by go/types
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	impls := make(map[implKey][]*FuncNode)
	resolve := func(iface *types.Interface, name string) []*FuncNode {
		key := implKey{iface, name}
		if cached, ok := impls[key]; ok {
			return cached
		}
		var out []*FuncNode
		for _, n := range named {
			ptr := types.NewPointer(n)
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, n.Obj().Pkg(), name)
			if m, ok := obj.(*types.Func); ok {
				if node := cg.Funcs[m]; node != nil {
					out = append(out, node)
				}
			}
		}
		impls[key] = out
		return out
	}
	// Pre-resolve every interface-method call site so buildEdges only
	// does map lookups.
	for _, node := range cg.Order {
		pkg := node.Pkg
		inspectOwn(node.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := callTargetFunc(pkg, call)
			if fn == nil || !isInterfaceMethod(fn) {
				return
			}
			if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
				resolve(iface, fn.Name())
			}
		})
	}
	return impls
}

// inspectOwn walks a function body without descending into nested
// function literals: a literal's statements belong to the literal's own
// graph node. The literal expression itself is still visited.
func inspectOwn(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn(lit)
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// buildEdges resolves every call in node's own body.
func (cg *CallGraph) buildEdges(node *FuncNode, impls map[implKey][]*FuncNode) {
	addUnique := func(dst *[]*FuncNode, targets ...*FuncNode) {
		for _, t := range targets {
			if t == nil {
				continue
			}
			dup := false
			for _, h := range *dst {
				if h == t {
					dup = true
					break
				}
			}
			if !dup {
				*dst = append(*dst, t)
			}
		}
	}
	resolveCall := func(call *ast.CallExpr, static, dynamic *[]*FuncNode) {
		fun := ast.Unparen(call.Fun)
		if lit, ok := fun.(*ast.FuncLit); ok {
			addUnique(static, cg.Lits[lit])
			return
		}
		fn := callTargetFunc(node.Pkg, call)
		if fn != nil {
			if isInterfaceMethod(fn) {
				if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
					addUnique(dynamic, impls[implKey{iface, fn.Name()}]...)
				}
				return
			}
			callee := cg.Funcs[fn]
			addUnique(static, callee)
			if callee != nil {
				// Callbacks run on the caller's behalf: they are its
				// edges, not the callee's.
				for _, arg := range call.Args {
					addUnique(static, cg.funcValueNodes(node.Pkg, arg)...)
				}
			}
			return
		}
		// Indirect call: a variable or field holding a function value,
		// resolved through the flow table. Arguments never flow into
		// parameters: the values passed for one are edges of the callers
		// that pass them.
		var obj types.Object
		switch v := fun.(type) {
		case *ast.Ident:
			obj = node.Pkg.Info.ObjectOf(v)
		case *ast.SelectorExpr:
			obj = node.Pkg.Info.ObjectOf(v.Sel)
		}
		if obj != nil {
			addUnique(static, cg.flows[obj]...)
		}
	}
	inspectOwn(node.Body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.GoStmt:
			resolveCall(v.Call, &node.Spawned, &node.Spawned)
		case *ast.CallExpr:
			resolveCall(v, &node.Static, &node.Dynamic)
		}
	})
}

// Reachable returns the set of nodes reachable from root over the given
// edge selector, including root itself. skip prunes traversal: a node
// for which skip returns true is neither visited nor expanded.
func (cg *CallGraph) Reachable(root *FuncNode, edges func(*FuncNode) []*FuncNode, skip func(*FuncNode) bool) []*FuncNode {
	if root == nil || (skip != nil && skip(root)) {
		return nil
	}
	seen := map[*FuncNode]bool{root: true}
	out := []*FuncNode{root}
	for i := 0; i < len(out); i++ {
		for _, t := range edges(out[i]) {
			if seen[t] || (skip != nil && skip(t)) {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// HotEdges is the edge selector the hotalloc analyzer traverses: static
// calls, function-value calls, and spawned goroutines. Interface
// dispatch is deliberately excluded — dynamic callees are budgeted at
// their own roots (see DESIGN.md "Analysis substrate").
func HotEdges(n *FuncNode) []*FuncNode {
	if len(n.Spawned) == 0 {
		return n.Static
	}
	out := make([]*FuncNode, 0, len(n.Static)+len(n.Spawned))
	out = append(out, n.Static...)
	out = append(out, n.Spawned...)
	return out
}

// shortFile trims a path to its last two segments for display.
func shortFile(path string) string {
	segs := splitSlash(path)
	if len(segs) <= 2 {
		return path
	}
	return segs[len(segs)-2] + "/" + segs[len(segs)-1]
}

// sortNodesByPos orders nodes deterministically by source position.
func sortNodesByPos(fset *token.FileSet, nodes []*FuncNode) {
	sort.Slice(nodes, func(i, j int) bool {
		a, b := fset.Position(nodes[i].Pos()), fset.Position(nodes[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
}
