package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/peel"
	"repro/internal/verify"
)

// barbell builds two forced degree-3 hubs joined by a chain of the given
// length (same construction as the peel tests): the chain is an internal
// path of the clique forest whose length can far exceed the 10k knowledge
// horizon.
func barbell(chainLen int) *graph.Graph {
	g := graph.New()
	for _, e := range [][2]graph.ID{
		{1, 2}, {2, 3}, {1, 3},
		{1, 7}, {2, 7}, {2, 8}, {3, 8}, {1, 9}, {3, 9},
	} {
		g.AddEdge(e[0], e[1])
	}
	last := graph.ID(9)
	next := graph.ID(10)
	for i := 0; i < chainLen; i++ {
		g.AddEdge(last, next)
		last = next
		next++
	}
	// Right hub K2 = {next, next+1, next+2} joined via a weight-2 clique.
	a, b, c := next, next+1, next+2
	g.AddEdge(last, a)
	g.AddEdge(last, b)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(a, c)
	g.AddEdge(b, c+1)
	g.AddEdge(c, c+1)
	g.AddEdge(a, c+2)
	g.AddEdge(c, c+2)
	return g
}

// TestDistributedPruneBeyondHorizon exercises the frontier case: with
// k=3 the knowledge radius is 30, far less than the 200-clique internal
// chain, so mid-chain nodes must peel themselves via the
// "binary path reaches my horizon ⇒ diameter ≥ 3k" rule, while hub-area
// nodes must wait for a later iteration. The partition must still match
// the centralized algorithm exactly (Lemma 12).
func TestDistributedPruneBeyondHorizon(t *testing.T) {
	g := barbell(200)
	const k = 3
	out, err := DistributedPrune(g, k)
	if err != nil {
		t.Fatal(err)
	}
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k})
	if err != nil {
		t.Fatal(err)
	}
	central := peeled.NodeLayers()
	for v, l := range out.Layer {
		if central[v] != l {
			t.Fatalf("node %d: distributed layer %d, centralized %d", v, l, central[v])
		}
	}
	if out.Iterations < 2 {
		t.Fatalf("expected at least 2 iterations, got %d", out.Iterations)
	}
	// Mid-chain nodes (far from both hubs) must be layer 1.
	if out.Layer[100] != 1 {
		t.Fatalf("mid-chain node in layer %d, want 1", out.Layer[100])
	}
}

// TestColorChordalDistributedBeyondHorizon runs the whole distributed
// pipeline on the barbell, checking legality and the palette bound.
func TestColorChordalDistributedBeyondHorizon(t *testing.T) {
	g := barbell(150)
	cc, err := ColorChordalDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	used, err := verify.Coloring(g, cc.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used > cc.Palette {
		t.Fatalf("used %d > palette %d", used, cc.Palette)
	}
}

// TestDistributedPruneSpiderKValues checks the local decision across k on
// a spider (many pendant arms of varying length).
func TestDistributedPruneSpiderKValues(t *testing.T) {
	g := graph.New()
	next := graph.ID(1)
	for arm := 0; arm < 6; arm++ {
		last := graph.ID(0)
		for i := 0; i <= arm*7; i++ {
			g.AddEdge(last, next)
			last = next
			next++
		}
	}
	for _, k := range []int{3, 5} {
		out, err := DistributedPrune(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k})
		if err != nil {
			t.Fatal(err)
		}
		central := peeled.NodeLayers()
		for v, l := range out.Layer {
			if central[v] != l {
				t.Fatalf("k=%d node %d: distributed %d, centralized %d", k, v, l, central[v])
			}
		}
	}
}

// TestDistributedPruneDisconnected checks per-component behaviour.
func TestDistributedPruneDisconnected(t *testing.T) {
	g := gen.Path(30)
	h := gen.RandomChordal(40, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 5)
	for _, e := range h.Edges() {
		g.AddEdge(e[0]+1000, e[1]+1000)
	}
	out, err := DistributedPrune(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 9})
	if err != nil {
		t.Fatal(err)
	}
	central := peeled.NodeLayers()
	for v, l := range out.Layer {
		if central[v] != l {
			t.Fatalf("node %d: distributed %d, centralized %d", v, l, central[v])
		}
	}
}

// TestCorrectionPhaseOnHubTree drives the correction choreography through
// several layers: pendant-only style depth in the hub tree means parents
// must cascade SetColor messages layer by layer.
func TestCorrectionPhaseOnHubTree(t *testing.T) {
	g := gen.HubTree(3, 12)
	cc, err := ColorChordalDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Coloring(g, cc.Colors); err != nil {
		t.Fatal(err)
	}
	if cc.Layers < 2 {
		t.Fatalf("expected multi-layer peel, got %d", cc.Layers)
	}
	if cc.Rounds <= 0 {
		t.Fatal("no rounds")
	}
	// Some nodes must actually have been recolored by their parents.
	recolored := 0
	for v, final := range cc.Colors {
		if final != cc.Provisional[v] {
			recolored++
		}
	}
	t.Logf("layers=%d rounds=%d recolored=%d/%d", cc.Layers, cc.Rounds, recolored, g.NumNodes())
}

// TestCorrectionPhaseDirect exercises RunCorrectionPhase standalone.
func TestCorrectionPhaseDirect(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 41)
	k := 3
	outcome, err := DistributedPrune(g, k)
	if err != nil {
		t.Fatal(err)
	}
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k})
	if err != nil {
		t.Fatal(err)
	}
	col, err := colorLayers(g, k, peeled, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := RunCorrectionPhase(g, outcome.Layer, outcome.Parent, col.Colors, k, dist.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 0 {
		t.Fatal("negative rounds")
	}
}
