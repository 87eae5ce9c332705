package analysis

import (
	"go/ast"
)

// NoGlobalRand flags use of math/rand's process-global source and of
// wall-clock-seeded sources in non-test code. Every randomized component
// in the repo (graph generators, Luby/Johansson baselines, the beyond-
// chordal experiment) threads an explicit int64 seed so that EXPERIMENTS.md
// tables and the determinism cross-checks reproduce bit-identically; a
// single rand.Intn on the shared source, or a source seeded from
// time.Now, would make results depend on process history and launch time.
var NoGlobalRand = &Analyzer{
	Name: "noglobalrand",
	Doc:  "math/rand global-source calls or wall-clock-seeded sources in simulation code",
	Run:  runNoGlobalRand,
}

// randConstructors are the math/rand functions that build explicitly
// seeded values rather than touching the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// randSourceConstructors is the subset that consumes the seed itself;
// only these are checked for wall-clock seeding, so that
// rand.New(rand.NewSource(time.Now().UnixNano())) reports once, at the
// source.
var randSourceConstructors = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runNoGlobalRand(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if isPkgCall(pass.Info, call, path) && !randConstructors[fn.Name()] {
				pass.Reportf(call.Pos(), "calls %s.%s on the shared global source; thread an explicit seed through rand.New(rand.NewSource(seed)) so runs reproduce", path, fn.Name())
				return true
			}
			if randSourceConstructors[fn.Name()] && callContainsWallClock(pass, call) {
				pass.Reportf(call.Pos(), "seeds %s.%s from the wall clock; use a fixed or caller-provided seed so runs reproduce", path, fn.Name())
			}
			return true
		})
	}
}

// callContainsWallClock reports whether any argument subtree of call
// reads the wall clock (time.Now and friends).
func callContainsWallClock(pass *Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if ok && isPkgCall(pass.Info, inner, "time", "Now") {
				found = true
				return false
			}
			return !found
		})
	}
	return found
}
