package analysis

import (
	"path/filepath"
	"testing"
)

// loadFacts builds the interprocedural facts over a fixture module.
func loadFacts(t *testing.T, fixture string) *Facts {
	t.Helper()
	pkgs, err := LoadModule(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", fixture)
	}
	return BuildFacts(pkgs)
}

// nodeByName finds a declared function node by its display name.
func nodeByName(t *testing.T, cg *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range cg.Order {
		if n.Decl != nil && n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %s in call graph", name)
	return nil
}

func edgeNames(nodes []*FuncNode) map[string]bool {
	out := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		out[n.Name()] = true
	}
	return out
}

func TestCallGraphStaticAndDynamic(t *testing.T) {
	facts := loadFacts(t, "callgraph")
	cg := facts.Graph

	// Interface dispatch resolves to every in-module implementation.
	dispatch := nodeByName(t, cg, "Dispatch")
	dyn := edgeNames(dispatch.Dynamic)
	if !dyn["Doubler.Apply"] || !dyn["Negator.Apply"] {
		t.Errorf("Dispatch dynamic targets = %v, want Doubler.Apply and Negator.Apply", dyn)
	}
	if len(dispatch.Static) != 0 {
		t.Errorf("Dispatch static targets = %v, want none", edgeNames(dispatch.Static))
	}

	// HotEdges excludes dynamic dispatch.
	for _, e := range HotEdges(dispatch) {
		t.Errorf("HotEdges(Dispatch) includes %s; interface dispatch must be excluded", e.Name())
	}
}

func TestCallGraphFunctionValues(t *testing.T) {
	facts := loadFacts(t, "callgraph")
	cg := facts.Graph

	// The field call resolves to everything that flowed into the field:
	// leaf via the keyed literal in Wire, and the literal stored in
	// WireAssign.
	callField := nodeByName(t, cg, "Runner.CallField")
	static := edgeNames(callField.Static)
	if !static["leaf"] {
		t.Errorf("Runner.CallField static targets = %v, want leaf (keyed literal flow)", static)
	}
	litSeen := false
	for _, n := range callField.Static {
		if n.Lit != nil {
			litSeen = true
		}
	}
	if !litSeen {
		t.Errorf("Runner.CallField static targets = %v, want the WireAssign literal too", static)
	}

	// Callbacks resolve per call site: the method value and the named
	// function UseApply passes are UseApply's edges, and ApplyTwice's
	// call through its parameter adds none, so another caller's
	// callbacks never merge into UseApply's reach.
	useApply := nodeByName(t, cg, "UseApply")
	static = edgeNames(useApply.Static)
	if !static["ApplyTwice"] || !static["Doubler.Apply"] || !static["leaf"] {
		t.Errorf("UseApply static targets = %v, want ApplyTwice, Doubler.Apply and leaf", static)
	}
	if targets := nodeByName(t, cg, "ApplyTwice").Static; len(targets) != 0 {
		t.Errorf("ApplyTwice static targets = %v, want none: a parameter call resolves at its callers", edgeNames(targets))
	}
}

func TestCallGraphSpawnEdges(t *testing.T) {
	facts := loadFacts(t, "callgraph")
	cg := facts.Graph

	spawn := nodeByName(t, cg, "Spawn")
	if len(spawn.Spawned) != 1 || spawn.Spawned[0].Lit == nil {
		t.Fatalf("Spawn spawned targets = %v, want exactly the worker literal", edgeNames(spawn.Spawned))
	}
	// The spawned literal statically calls leaf, so leaf is reachable
	// from Spawn over hot edges.
	reach := edgeNames(cg.Reachable(spawn, HotEdges, nil))
	if !reach["leaf"] {
		t.Errorf("Reachable(Spawn, HotEdges) = %v, want to include leaf through the spawned literal", reach)
	}
}

func TestReachableSkipsColdNodes(t *testing.T) {
	facts := loadFacts(t, "callgraph")
	cg := facts.Graph

	spawn := nodeByName(t, cg, "Spawn")
	skipLits := func(n *FuncNode) bool { return n.Lit != nil }
	reach := edgeNames(cg.Reachable(spawn, HotEdges, skipLits))
	if reach["leaf"] {
		t.Errorf("Reachable with literal pruning still includes leaf: %v", reach)
	}
}
