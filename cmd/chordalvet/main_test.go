package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
)

// loadModule loads and type-checks the module once for the tests that
// only read it; TestModuleAnalysisUnderBudget times a load of its own.
var loadModule = sync.OnceValues(func() ([]*analysis.Package, error) {
	return analysis.LoadModule("../..")
})

// TestShippedTreeIsClean is the gate behind `make lint`: the repo's own
// source must produce zero diagnostics from the full analyzer suite.
// Violations either get fixed or carry an explicit chordalvet:ignore
// justification; silent regressions fail CI here.
func TestShippedTreeIsClean(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the module tree", len(pkgs))
	}
	diags := analysis.Run(pkgs, analysis.All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// testSupport names the internal packages, functions and methods that
// may have no caller outside tests, each with the reason it stays. A
// method is named by its receiver's type name: "pkg.Type.Method".
var testSupport = map[string]string{
	"repro/internal/gen":                    "graph generators shared by tests, experiments and the bench module",
	"repro/internal/verify":                 "output checkers and brute-force references shared by tests, experiments and the CLI",
	"repro/internal/proctest":               "the GOMAXPROCS sweep shared by the determinism tests",
	"repro/internal/chordal.AllLabeled":     "the exhaustive tiers' enumerator, used by tests in chordal, peel and core",
	"repro/internal/dist.NewLocalPartition": "the in-process reference transport for the partition tests in dist and core",
	"repro/internal/peel.LayerCliquePath":   "used by tests in core and peel",
	"repro/internal/colorreduce.MISChain":   "the log*-round chain MIS, kept until ColIntGraph and MISInterval at their published round bounds use it or drop it",
	"repro/internal/graph.Graph.Equal":      "graph equality for the tests in graph, gen and interval",
	"repro/internal/obs.Collector.SetClock": "the fake clock of the obs and tracestat tests",
	// The map-backed clique forest's path layer and the accessors it
	// reads: the reference internal/peel/reference_test.go checks the
	// index-space peel against.
	"repro/internal/cliquetree.Forest.MaximalBinaryPaths":     "the peel reference's path enumeration",
	"repro/internal/cliquetree.Forest.SubpathNodes":           "the peel reference's path members",
	"repro/internal/cliquetree.Forest.PathDiameter":           "the peel reference's path diameter",
	"repro/internal/cliquetree.Forest.PathIndependenceNumber": "the peel reference's path independence number",
	"repro/internal/cliquetree.Forest.Cliques":                "read by the peel reference",
	"repro/internal/cliquetree.Forest.Degree":                 "read by the peel reference",
	"repro/internal/cliquetree.Forest.Neighbors":              "read by the peel reference",
	"repro/internal/cliquetree.Forest.Phi":                    "read by the peel reference",
}

// TestInternalFuncsHaveCallers keeps test-only code out of the
// production packages: every function and method declared in a non-test
// file under internal/ must be used by some non-test file of the module,
// outside its own declaration, unless testSupport names it or its
// package. Calls through an interface name the interface's method, so a
// method also counts as used when its receiver implements an interface
// that the module's code uses and that declares the method; String and
// Error count as used because fmt calls them. A function or method only
// tests use belongs in a _test.go file of its package.
func TestInternalFuncsHaveCallers(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	type decl struct {
		pos, end token.Pos
		name     string
	}
	decls := make(map[types.Object]decl)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") || testSupport[p.Path] != "" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				name := p.Path + "." + fd.Name.Name
				if fd.Recv != nil {
					if fd.Name.Name == "String" || fd.Name.Name == "Error" {
						continue
					}
					name = p.Path + "." + recvTypeName(p.Info.Defs[fd.Name]) + "." + fd.Name.Name
				}
				if testSupport[name] != "" {
					continue
				}
				decls[p.Info.Defs[fd.Name]] = decl{fd.Pos(), fd.End(), name}
			}
		}
	}
	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d, ok := decls[obj]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
				used[obj] = true
			}
			if v, ok := obj.(*types.Var); ok {
				collectInterfaces(v.Type(), ifaces)
			}
		}
		for _, tv := range p.Info.Types {
			collectInterfaces(tv.Type, ifaces)
		}
	}
	for obj := range decls {
		if !used[obj] && implementsUsedInterface(obj.(*types.Func), ifaces) {
			used[obj] = true
		}
	}
	var unused []decl
	for obj, d := range decls {
		if !used[obj] {
			unused = append(unused, d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].name < unused[j].name })
	for _, d := range unused {
		t.Errorf("%s: %s has no caller outside tests; move it beside its tests or delete it",
			pkgs[0].Fset.Position(d.pos), d.name)
	}
}

// recvTypeName returns the name of a method's receiver type, pointer
// stripped.
func recvTypeName(obj types.Object) string {
	t := obj.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// collectInterfaces adds to set every interface with methods that t is
// or that a signature t takes or returns.
func collectInterfaces(t types.Type, set map[*types.Interface]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 {
			set[u] = true
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				pt := tuple.At(i).Type()
				if sl, ok := pt.(*types.Slice); ok && u.Variadic() {
					pt = sl.Elem()
				}
				collectInterfaces(pt, set)
			}
		}
	}
}

// implementsUsedInterface reports whether fn's receiver type, or a
// pointer to it, implements an interface of set that declares fn.
func implementsUsedInterface(fn *types.Func, set map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for iface := range set {
		declares := false
		for i := 0; i < iface.NumMethods(); i++ {
			declares = declares || iface.Method(i).Name() == fn.Name()
		}
		if declares && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
			return true
		}
	}
	return false
}

func TestListAndBadFlags(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Errorf("run(-list) = %d, want 0", got)
	}
	if got := run([]string{"-run", "("}); got != 2 {
		t.Errorf("run(-run '(') = %d, want 2", got)
	}
	if got := run([]string{"-run", "nosuchanalyzer"}); got != 2 {
		t.Errorf("run(-run nosuchanalyzer) = %d, want 2", got)
	}
}

func TestJSONEncoding(t *testing.T) {
	diags := []analysis.Diagnostic{{
		Pos:      token.Position{Filename: filepath.FromSlash("/mod/pkg/a.go"), Line: 3, Column: 7},
		Analyzer: "hotalloc",
		Message:  "over budget",
	}}
	var buf bytes.Buffer
	if err := writeJSON(&buf, diags, moduleRel(filepath.FromSlash("/mod"))); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var got []finding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := finding{File: "pkg/a.go", Line: 3, Column: 7, Analyzer: "hotalloc", Message: "over budget"}
	if len(got) != 1 || got[0] != want {
		t.Errorf("writeJSON = %+v, want [%+v]", got, want)
	}

	// An empty run must still be a JSON array, so the lint-diff baseline
	// for a clean tree is the literal "[]".
	buf.Reset()
	if err := writeJSON(&buf, nil, moduleRel("/")); err != nil {
		t.Fatalf("writeJSON(empty): %v", err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty findings encoded as %q, want []", s)
	}
}

func TestSARIFEncoding(t *testing.T) {
	diags := []analysis.Diagnostic{{
		Pos:      token.Position{Filename: filepath.FromSlash("/mod/pkg/a.go"), Line: 3, Column: 7},
		Analyzer: "goroleak",
		Message:  "no join evidence",
	}}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, analysis.All(), diags, moduleRel(filepath.FromSlash("/mod"))); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF version=%q runs=%d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if got, want := len(run.Tool.Driver.Rules), len(analysis.All()); got != want {
		t.Errorf("SARIF carries %d rules, want one per analyzer (%d)", got, want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("SARIF has %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	loc := res.Locations[0].PhysicalLocation
	if res.RuleID != "goroleak" || loc.ArtifactLocation.URI != "pkg/a.go" || loc.Region.StartLine != 3 {
		t.Errorf("SARIF result = rule %q uri %q line %d, want goroleak pkg/a.go 3",
			res.RuleID, loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

// TestFlagsOverFixtureModule drives the new flags end to end over the
// hotalloc fixture module, which deliberately contains findings.
func TestFlagsOverFixtureModule(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "hotalloc")
	sarif := filepath.Join(t.TempDir(), "out.sarif")

	if got := run([]string{"-run", "hotalloc", "-sarif", sarif, fixture}); got != 1 {
		t.Errorf("run(-sarif over hotalloc fixture) = %d, want 1 (fixture has findings)", got)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatalf("SARIF file not written: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF file is not valid JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatalf("SARIF file has no results for a fixture with findings")
	}
	for _, res := range log.Runs[0].Results {
		uri := res.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if strings.HasPrefix(uri, "/") || strings.Contains(uri, "\\") {
			t.Errorf("SARIF URI %q is not a module-relative slash path", uri)
		}
	}

	if got := run([]string{"-budgets", fixture}); got != 0 {
		t.Errorf("run(-budgets) = %d, want 0 (informational)", got)
	}
	if got := run([]string{"-sarif", filepath.Join(t.TempDir(), "no", "such", "dir", "x.sarif"), fixture}); got != 2 {
		t.Errorf("run(-sarif into missing dir) = %d, want 2", got)
	}
}

// TestModuleAnalysisUnderBudget is the `make lint-bench` gate: loading,
// type-checking, and analyzing the whole module must finish inside a
// fixed wall-clock budget, so the analyzers stay cheap enough to run on
// every push. Override the budget with CHORDALVET_BENCH_BUDGET (a Go
// duration) when profiling slower machines.
func TestModuleAnalysisUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full module analysis in -short mode")
	}
	budget := 45 * time.Second
	if s := os.Getenv("CHORDALVET_BENCH_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad CHORDALVET_BENCH_BUDGET %q: %v", s, err)
		}
		budget = d
	}
	start := time.Now()
	pkgs, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	_ = analysis.Run(pkgs, analysis.All())
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("full-module analysis took %v, over the %v budget", elapsed, budget)
	} else {
		t.Logf("full-module analysis: %v (budget %v)", elapsed, budget)
	}
}

func TestRunOverModuleRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("full module load in -short mode")
	}
	// "../../..." exercises the ./... spelling and the module-root walk.
	if got := run([]string{"-run", "wallclock", "../../..."}); got != 0 {
		t.Errorf("run over module root = %d, want 0", got)
	}
}
