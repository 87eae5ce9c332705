package analysis

import (
	"go/ast"
)

// WallClock flags wall-clock reads inside the deterministic simulation
// core. In the LOCAL model the only notion of time is the round counter:
// the engine's schedules (pooled, per-node, sequential) are promised to
// be observationally identical, and any time.Now/time.Since in protocol
// or peeling code would let wall-clock jitter steer control flow and
// break that promise. The guard covers the whole internal/ tree with one
// sanctioned exception: internal/obs, the observability layer, exists
// precisely to stamp engine callbacks with wall times so that no other
// package ever needs the clock. Benchmarks live in _test.go files, which
// the loader does not feed to analyzers, so timing instrumentation
// remains free to exist where it belongs.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "time.Now/time.Since under internal/ outside internal/obs, the one sanctioned clock user",
	Run:  runWallClock,
}

// wallClockExemptPaths are the package path segments excused from the
// internal/-wide wall-clock ban. Only the observability layer qualifies:
// it is the single place where rounds meet wall time, and it feeds
// timings to traces, never back into algorithm control flow.
var wallClockExemptPaths = []string{
	"internal/obs",
}

func runWallClock(pass *Pass) {
	if !pathHasSegments(pass.PkgPath, "internal") {
		return
	}
	for _, seg := range wallClockExemptPaths {
		if pathHasSegments(pass.PkgPath, seg) {
			return
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgCall(pass.Info, call, "time", "Now", "Since", "Until") {
				fn := calleeFunc(pass.Info, call)
				pass.Reportf(call.Pos(), "calls time.%s in %s; the simulation core is deterministic and measures time in rounds — route wall-clock instrumentation through internal/obs", fn.Name(), pass.PkgPath)
			}
			return true
		})
	}
}
