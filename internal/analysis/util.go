package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// forEachFunc invokes fn for every function or method body in the pass,
// including function literals. Literals nested inside a body are also
// visited on their own, so analyses that scan "the enclosing function"
// see each body exactly once as the root.
func forEachFunc(pass *Pass, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					fn(v, v.Body)
				}
			case *ast.FuncLit:
				fn(nil, v.Body)
			}
			return true
		})
	}
}

// calleeFunc resolves a call expression to its static *types.Func
// callee: a plain function, a concrete method, or an interface method
// (the caller distinguishes via the receiver type). Indirect calls and
// builtins return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isPkgCall reports whether call invokes a package-level function of the
// package with the given import path whose name is in names. An empty
// names list matches any function of the package.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// recvTypeName returns the package name and named-type name of a method
// call's receiver ("graph", "Indexed"), or empty strings for non-methods.
// Matching on names rather than full import paths lets the analyzers work
// identically on the real repo and on the self-contained stub packages in
// testdata fixtures.
func recvTypeName(pass *Pass, call *ast.CallExpr) (pkgName, typeName, method string) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return "", "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", "", ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgName = obj.Pkg().Name()
	}
	return pkgName, obj.Name(), fn.Name()
}

// isFloat reports whether t's underlying type is a floating-point basic
// type.
func isFloat(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// identObj resolves an expression to the object of the identifier it
// denotes, unwrapping parentheses; nil for anything but a plain
// identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// isInPlaceSort reports whether call is a standard-library call that
// reorders its first argument in place (sort.Slice, slices.Sort, ...).
func isInPlaceSort(info *types.Info, call *ast.CallExpr) bool {
	return isPkgCall(info, call, "sort",
		"Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s") ||
		isPkgCall(info, call, "slices",
			"Sort", "SortFunc", "SortStableFunc", "Reverse")
}

// isAppendCall reports whether call is the append builtin.
func isAppendCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// pathHasSegments reports whether the import path contains the given
// consecutive slash-separated segments ("internal/dist" matches
// "repro/internal/dist" but not "repro/internal/distillery").
func pathHasSegments(path, segments string) bool {
	want := strings.FieldsFunc(segments, isSlash)
	have := strings.FieldsFunc(path, isSlash)
	for i := 0; i+len(want) <= len(have); i++ {
		match := true
		for j, s := range want {
			if have[i+j] != s {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// isSlash separates the segments of an import or file path.
func isSlash(r rune) bool { return r == '/' }
