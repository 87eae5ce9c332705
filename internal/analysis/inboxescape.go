package analysis

import (
	"go/ast"
	"go/types"
)

// InboxEscape flags Protocol.Round implementations that retain the
// per-round inbox slice past the callback. The dist engine double-buffers
// inboxes: the slice passed to Round is truncated and refilled with next
// round's messages as soon as the round barrier passes, so a handler
// that stores the slice (or a re-slice of it) in its state observes
// messages from a *future* round — a time-travel bug that only
// manifests under particular schedules. Storing individual Message
// values (which are copied) or appending the messages into an owned
// slice is fine; retaining the backing array is not.
var InboxEscape = &Analyzer{
	Name: "inboxescape",
	Doc:  "Round handlers retaining the engine-owned per-round inbox slice",
	Run:  runInboxEscape,
}

func runInboxEscape(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Round" || fd.Body == nil {
				continue
			}
			inbox := roundInboxParam(pass, fd)
			if inbox == nil {
				continue
			}
			checkInboxEscapes(pass, fd.Body, inbox)
		}
	}
}

// roundInboxParam returns the object of Round's trailing []Message
// parameter, or nil if the method does not look like a Protocol.Round.
func roundInboxParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil
	}
	last := params.List[len(params.List)-1]
	if len(last.Names) != 1 || last.Names[0].Name == "_" {
		return nil
	}
	obj := pass.Info.ObjectOf(last.Names[0])
	if obj == nil {
		return nil
	}
	slice, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	named, ok := slice.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Message" {
		return nil
	}
	return obj
}

func checkInboxEscapes(pass *Pass, body *ast.BlockStmt, inbox types.Object) {
	tainted := map[types.Object]bool{inbox: true}
	// isInboxSlice: the inbox itself or a re-slice of it (shares the
	// engine-owned backing array). Indexing produces a Message copy and
	// is safe, so IndexExpr is deliberately not matched.
	var isInboxSlice func(e ast.Expr) bool
	isInboxSlice = func(e ast.Expr) bool {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.Info.ObjectOf(v)
			return obj != nil && tainted[obj]
		case *ast.SliceExpr:
			return isInboxSlice(v.X)
		}
		return false
	}
	// Propagate through local aliases to a fixpoint first.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				if !isInboxSlice(as.Rhs[i]) {
					continue
				}
				if obj := identObj(pass.Info, as.Lhs[i]); obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i := range v.Lhs {
				if !isInboxSlice(v.Rhs[i]) {
					continue
				}
				switch lhs := ast.Unparen(v.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					pass.Reportf(v.Pos(), "stores the per-round inbox slice in %s; the engine reuses its backing array after the round — copy the messages with append instead", exprString(lhs))
				case *ast.IndexExpr:
					pass.Reportf(v.Pos(), "stores the per-round inbox slice into a container; the engine reuses its backing array after the round — copy the messages with append instead")
				case *ast.Ident:
					if obj := pass.Info.ObjectOf(lhs); obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(v.Pos(), "stores the per-round inbox slice in package variable %s; the engine reuses its backing array after the round — copy the messages instead", lhs.Name)
					}
				}
			}
		case *ast.GoStmt:
			referencesInbox := false
			ast.Inspect(v.Call, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pass.Info.ObjectOf(id); obj != nil && tainted[obj] {
						referencesInbox = true
						return false
					}
				}
				return !referencesInbox
			})
			if referencesInbox {
				pass.Reportf(v.Pos(), "passes the per-round inbox slice to a goroutine that may outlive the round; the engine reuses its backing array — copy the messages first")
			}
		}
		return true
	})
}

// exprString renders a selector chain like "p.saved" for diagnostics.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	default:
		return "?"
	}
}
