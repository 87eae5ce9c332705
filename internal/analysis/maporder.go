package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags iteration over a Go map that accumulates into a slice,
// writes output, or sends messages, with no intervening sort. Go
// randomizes map iteration order on purpose, so any of these leaks
// scheduler entropy straight into results the paper requires to be
// canonical: clique-forest edge lists, peeling layers, experiment tables.
// Appending to a slice is tolerated when the same slice is sorted later
// in the function (the repo's standard collect-then-sort idiom); emitting
// output or messages from inside the loop can never be repaired after
// the fact and is always flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration feeding slices, output, or messages without a canonicalizing sort",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	forEachFunc(pass, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
		sorts := collectSortEvents(pass, body)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // visited separately by forEachFunc
			}
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rs) {
				return true
			}
			checkMapRangeBody(pass, rs, sorts)
			return true
		})
	})
}

// sortEvent is one in-place sort observed in a function body, keyed by
// the sorted variable (or receiver/field pair) and its position.
type sortEvent struct {
	key sortKey
	pos token.Pos
}

// sortKey identifies a sortable target: a plain variable, or a field
// selected from a variable ("t.Rows").
type sortKey struct {
	obj   types.Object
	field string
}

func sortTargetKey(pass *Pass, e ast.Expr) (sortKey, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.Info.ObjectOf(v); obj != nil {
			return sortKey{obj: obj}, true
		}
	case *ast.SelectorExpr:
		if base := identObj(pass.Info, v.X); base != nil {
			return sortKey{obj: base, field: v.Sel.Name}, true
		}
	}
	return sortKey{}, false
}

// collectSortEvents gathers every canonicalizing use in the body: an
// in-place sort of a slice, or the slice being fed to graph.NewSet,
// which sorts and deduplicates its arguments (the repo's standard way of
// canonicalizing a set accumulated in arbitrary order).
func collectSortEvents(pass *Pass, body *ast.BlockStmt) []sortEvent {
	var events []sortEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if !isInPlaceSort(pass.Info, call) && !isNewSetCall(pass, call) {
			return true
		}
		if key, ok := sortTargetKey(pass, call.Args[0]); ok {
			events = append(events, sortEvent{key: key, pos: call.Pos()})
		}
		return true
	})
	return events
}

// isNewSetCall reports whether call builds a canonical sorted set via
// the graph package's NewSet constructor.
func isNewSetCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	return fn != nil && fn.Name() == "NewSet" &&
		fn.Pkg() != nil && fn.Pkg().Name() == "graph" &&
		fn.Type().(*types.Signature).Recv() == nil
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody walks one map-range body looking for order-sensitive
// effects. Nested map ranges are skipped here: they are analyzed as
// roots of their own walk, so each violation reports once.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, sorts []sortEvent) {
	sortedLater := func(key sortKey) bool {
		for _, ev := range sorts {
			if ev.key == key && ev.pos >= rs.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if isMapRange(pass, v) {
				return false
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, rs, v, sortedLater)
		case *ast.CallExpr:
			if isPkgCall(pass.Info, v, "fmt", "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln") {
				pass.Reportf(v.Pos(), "writes output inside a range over a map; iteration order is randomized — iterate a sorted key slice instead")
				return true
			}
			pkgName, typeName, method := recvTypeName(pass, v)
			switch method {
			case "Write", "WriteString", "WriteByte", "WriteRune":
				pass.Reportf(v.Pos(), "writes to %s.%s inside a range over a map; iteration order is randomized — iterate a sorted key slice instead", pkgName, typeName)
			case "Send", "Broadcast":
				if typeName == "Context" {
					pass.Reportf(v.Pos(), "sends protocol messages inside a range over a map; the LOCAL engine's canonical delivery order cannot repair a nondeterministic send set — iterate sorted IDs instead")
				}
			}
		}
		return true
	})
}

// checkMapRangeAppend flags `x = append(x, ...)` inside a map range when
// x outlives the loop and is never sorted afterwards.
func checkMapRangeAppend(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt, sortedLater func(sortKey) bool) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isAppendCall(pass, call) || len(call.Args) == 0 || i >= len(as.Lhs) {
			continue
		}
		dstKey, ok := sortTargetKey(pass, as.Lhs[i])
		if !ok {
			continue // append into a map element or similar: commutative
		}
		srcKey, ok := sortTargetKey(pass, call.Args[0])
		if !ok || srcKey != dstKey {
			continue // not a self-append accumulator
		}
		// Accumulators declared inside the loop body restart every
		// iteration and carry no cross-iteration order.
		if dstKey.field == "" && dstKey.obj.Pos() >= rs.Body.Pos() && dstKey.obj.Pos() < rs.Body.End() {
			continue
		}
		if sortedLater(dstKey) {
			continue
		}
		name := dstKey.obj.Name()
		if dstKey.field != "" {
			name += "." + dstKey.field
		}
		pass.Reportf(as.Pos(), "appends to %s while ranging over a map and never sorts it; iteration order is randomized — sort %s afterwards or iterate a sorted key slice", name, name)
	}
}
