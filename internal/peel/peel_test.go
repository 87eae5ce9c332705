package peel

import (
	"math"
	"slices"
	"testing"

	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
)

func TestRunPartitionsAllNodes(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		res, err := Run(g, Options{InternalDiameter: 6})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int32]int)
		for _, layer := range res.Layers {
			for _, rec := range layer.Paths {
				for _, x := range rec.Nodes {
					if prev, dup := seen[x]; dup {
						t.Fatalf("seed %d: node %d in layers %d and %d", seed, x, prev, layer.Index)
					}
					if res.NodeLayer[x] != int32(layer.Index) {
						t.Fatalf("seed %d: node %d peeled in layer %d, NodeLayer %d", seed, x, layer.Index, res.NodeLayer[x])
					}
					seen[x] = layer.Index
				}
			}
		}
		if len(seen) != g.NumNodes() {
			t.Fatalf("seed %d: layers cover %d of %d nodes", seed, len(seen), g.NumNodes())
		}
	}
}

func TestLayerCountLogarithmic(t *testing.T) {
	// Corollary 1 / Lemma 6: at most ⌈log n⌉ iterations (n = forest
	// vertices ≤ graph nodes). Allow the +1 slack of the final cleanup.
	for _, n := range []int{64, 256, 1024} {
		g := gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.2}, 42)
		res, err := Run(g, Options{InternalDiameter: 6})
		if err != nil {
			t.Fatal(err)
		}
		bound := int(math.Ceil(math.Log2(float64(n)))) + 1
		if len(res.Layers) > bound {
			t.Fatalf("n=%d: %d layers > bound %d", n, len(res.Layers), bound)
		}
	}
}

func TestLemma5ForestUpdate(t *testing.T) {
	// Lemma 5: the clique forest of G[U_{i+1}] equals T_i minus the peeled
	// paths. We verify the vertex sets: recomputed forest's cliques =
	// previous forest's cliques minus peeled path cliques.
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 9)
	res, err := Run(g, Options{InternalDiameter: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(res.Forests); i++ {
		prev, next := res.Forests[i], res.Forests[i+1]
		peeled := make(map[string]bool)
		for _, rec := range res.Layers[i].Paths {
			for _, c := range rec.Cliques {
				peeled[setKey(res.Snapshot.IDSet(c))] = true
			}
		}
		want := make(map[string]bool)
		for j := 0; j < prev.NumVertices(); j++ {
			key := setKey(prev.Clique(j))
			if !peeled[key] {
				want[key] = true
			}
		}
		got := make(map[string]bool)
		for j := 0; j < next.NumVertices(); j++ {
			got[setKey(next.Clique(j))] = true
		}
		if len(got) != len(want) {
			t.Fatalf("iteration %d: forest has %d cliques, want %d", i+1, len(got), len(want))
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("iteration %d: clique %q missing after removal", i+1, key)
			}
		}
	}
}

func setKey(s graph.Set) string {
	b := make([]byte, 0, len(s)*3)
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func TestLayersAreIntervalGraphs(t *testing.T) {
	// Lemma 7 consequence: each peeled path's node set induces an
	// interval graph, with LayerCliquePath a valid consecutive
	// arrangement.
	for seed := int64(0); seed < 5; seed++ {
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		res, err := Run(g, Options{InternalDiameter: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range res.Layers {
			for _, rec := range layer.Paths {
				sub := g.InducedSubgraph(res.Snapshot.IDSet(rec.Nodes))
				if !chordal.IsChordal(sub) {
					t.Fatalf("seed %d layer %d: path subgraph not chordal", seed, layer.Index)
				}
				path := LayerCliquePath(res.Snapshot, rec)
				if err := interval.ValidCliquePath(sub, path); err != nil {
					t.Fatalf("seed %d layer %d: %v", seed, layer.Index, err)
				}
			}
		}
	}
}

func TestLemma11NeighborsInHigherLayers(t *testing.T) {
	// Lemma 11: in the graph current at iteration i, every neighbor of a
	// peeled path's node set W lies in a strictly higher layer. Nodes
	// peeled in earlier iterations were already gone; within iteration i,
	// a neighbor in layer i would have to be in the same path's W.
	for seed := int64(0); seed < 5; seed++ {
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.3}, seed)
		res, err := Run(g, Options{InternalDiameter: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range res.Layers {
			for _, rec := range layer.Paths {
				inW := make(map[int32]bool)
				for _, v := range rec.Nodes {
					inW[v] = true
				}
				for _, v := range rec.Nodes {
					for _, u := range res.Snapshot.NeighborIndices(int(v)) {
						if !inW[u] && res.NodeLayer[u] == int32(layer.Index) {
							t.Fatalf("seed %d: node %d of a layer-%d path neighbors %d in another layer-%d path",
								seed, v, layer.Index, u, layer.Index)
						}
					}
				}
			}
		}
	}
}

func TestLemma8ConflictsInsideAttachments(t *testing.T) {
	// Lemma 8: a peeled path's outside neighbors live inside the
	// attachment cliques.
	for seed := int64(0); seed < 5; seed++ {
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.3}, seed)
		res, err := Run(g, Options{InternalDiameter: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range res.Layers {
			for _, rec := range layer.Paths {
				inW := make(map[int32]bool)
				for _, v := range rec.Nodes {
					inW[v] = true
				}
				boundary := make(map[int32]bool)
				for _, u := range append(slices.Clone(rec.AttachStart), rec.AttachEnd...) {
					boundary[u] = true
				}
				for _, v := range rec.Nodes {
					for _, u := range res.Snapshot.NeighborIndices(int(v)) {
						if inW[u] {
							continue
						}
						// Outside neighbors still present at peel time
						// must be inside the attachments. Nodes peeled in
						// earlier iterations are exempt (they were gone).
						if res.NodeLayer[u] > int32(layer.Index) && !boundary[u] {
							t.Fatalf("seed %d layer %d: outside neighbor %d not in attachments",
								seed, layer.Index, u)
						}
					}
				}
			}
		}
	}
}

func TestTruncatedRun(t *testing.T) {
	g := gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.2}, 4)
	res, err := Run(g, Options{InternalDiameter: 5, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) > 2 {
		t.Fatalf("truncated run produced %d layers", len(res.Layers))
	}
	covered, remaining := 0, 0
	for _, l := range res.Layers {
		for _, rec := range l.Paths {
			covered += len(rec.Nodes)
		}
	}
	for _, l := range res.NodeLayer {
		if l == 0 {
			remaining++
		}
	}
	if covered+remaining != g.NumNodes() {
		t.Fatalf("layers (%d) + remaining (%d) != n (%d)", covered, remaining, g.NumNodes())
	}
}

func TestFinalAlphaRule(t *testing.T) {
	// With FinalAlpha set, the last iteration peels internal paths by
	// independence number. Build a barbell whose hubs are forced to be
	// degree-3 forest vertices by weight-2 clique intersections:
	// K1 = {1,2,3} with satellite cliques {1,2,7}, {2,3,8}, {1,3,9};
	// a long chain 9-10-...-30-31; K2 = {31,32,33} with satellites
	// {32,33,40}, {31,33,41}. The chain (with {1,3,9} and {30,31}) forms
	// an internal path of large independence number.
	g := graph.New()
	for _, e := range [][2]graph.ID{
		{1, 2}, {2, 3}, {1, 3}, // K1
		{1, 7}, {2, 7}, {2, 8}, {3, 8}, {1, 9}, {3, 9}, // satellites
		{31, 32}, {32, 33}, {31, 33}, // K2
		{32, 40}, {33, 40}, {31, 41}, {33, 41}, // satellites
		{30, 31}, {30, 32}, // chain end joins K2 via the weight-2 clique {30,31,32}
	} {
		g.AddEdge(e[0], e[1])
	}
	for v := graph.ID(9); v < 30; v++ {
		g.AddEdge(v, v+1)
	}
	res, err := Run(g, Options{InternalDiameter: 1 << 30, MaxIterations: 1, FinalAlpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 1 {
		t.Fatalf("got %d layers", len(res.Layers))
	}
	foundInternal := false
	for _, rec := range res.Layers[0].Paths {
		if rec.Kind == cliquetree.Internal {
			foundInternal = true
			// α(G[V_P]) over the path's full vertex set, the union of
			// its cliques, in the input graph this single iteration
			// peeled.
			var vp graph.Set
			for _, c := range rec.Cliques {
				vp = vp.Union(res.Snapshot.IDSet(c))
			}
			alpha, err := chordal.IndependenceNumber(g.InducedSubgraph(vp))
			if err != nil {
				t.Fatal(err)
			}
			if alpha < 3 {
				t.Fatalf("internal path peeled with α = %d < 3", alpha)
			}
		}
	}
	if !foundInternal {
		t.Fatal("expected the long internal path to be peeled by the α rule")
	}
}

func TestFig56Peel(t *testing.T) {
	// Figures 5–6: peeling the Fig-1 graph must, in its first iteration,
	// remove pendant paths; with a small diameter threshold the internal
	// path C6..C10 is peeled, taking exactly nodes {9..14} with it.
	g := figures.Fig1()
	res, err := Run(g, Options{InternalDiameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Layers[0]
	var internalRec *PathRecord
	for i, rec := range first.Paths {
		if rec.Kind == cliquetree.Internal {
			if internalRec != nil {
				t.Fatal("more than one internal path in iteration 1")
			}
			internalRec = &first.Paths[i]
		}
	}
	if internalRec == nil {
		t.Fatal("internal path C6..C10 not peeled")
	}
	if nodes := res.Snapshot.IDSet(internalRec.Nodes); !nodes.Equal(figures.Fig5PeeledNodes) {
		t.Fatalf("internal path removed %v, want %v", nodes, figures.Fig5PeeledNodes)
	}
	if len(internalRec.Cliques) != len(figures.Fig5Path) {
		t.Fatalf("internal path has %d cliques, want %d", len(internalRec.Cliques), len(figures.Fig5Path))
	}
}

func TestPendantOnlyAblation(t *testing.T) {
	// DESIGN ablation: without internal-path peeling, a long "barbell"
	// needs many more iterations than with it.
	bar := gen.Path(200)
	bar.AddEdge(0, 300)
	bar.AddEdge(0, 301)
	bar.AddEdge(199, 302)
	bar.AddEdge(199, 303)
	with, err := Run(bar, Options{InternalDiameter: 10})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(bar, Options{InternalDiameter: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Layers) > len(without.Layers) {
		t.Fatalf("internal peeling used %d layers, pendant-only %d",
			len(with.Layers), len(without.Layers))
	}
}
