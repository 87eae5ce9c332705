package interval

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestDiameterMatchesBFSOracle pins Diameter to graph.Diameter (a BFS
// from every node) on random interval graphs: sparse ones fall apart
// into many components, dense ones stay connected, and the model is
// both the maximal-clique path and a model with non-maximal cliques.
func TestDiameterMatchesBFSOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, span := range []float64{5, 20, 60} {
			ivs := gen.RandomIntervals(50, span, 3, seed)
			g := gen.FromIntervals(ivs)
			want := g.Diameter()
			if got := Diameter(g, CliquePathFromModel(ivs)); got != want {
				t.Fatalf("seed %d span %v: Diameter = %d, BFS oracle %d", seed, span, got, want)
			}
			if got := Diameter(g, separatorModel(ivs)); got != want {
				t.Fatalf("seed %d span %v: Diameter over the separator model = %d, BFS oracle %d", seed, span, got, want)
			}
		}
	}
}

// separatorModel is a clique-path model with non-maximal cliques: the
// maximal-clique path with each pair of neighbors' intersection (empty
// ones included) inserted between them, which keeps every node's
// cliques consecutive.
func separatorModel(ivs []gen.Interval) []graph.Set {
	var out []graph.Set
	for i, c := range CliquePathFromModel(ivs) {
		if i > 0 {
			out = append(out, out[len(out)-1].Intersect(c))
		}
		out = append(out, c)
	}
	return out
}

func TestDiameterEdgeCases(t *testing.T) {
	if d := Diameter(graph.New(), nil); d != 0 {
		t.Fatalf("empty graph: %d", d)
	}
	single := graph.New()
	single.AddNode(7)
	if d := Diameter(single, []graph.Set{{7}}); d != 0 {
		t.Fatalf("single node: %d", d)
	}
	// Nodes of the model outside g are ignored: the path 1-2-3 inside
	// the model of the path 0-1-2-3-4.
	p := gen.Path(5)
	sub := p.InducedSubgraph([]graph.ID{1, 2, 3})
	model := []graph.Set{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if d := Diameter(sub, model); d != 2 {
		t.Fatalf("sub-path diameter %d, want 2", d)
	}
}

// TestUmbrellaFirstEccentricityIsDiameter pins what MISInterval's
// diameter test relies on: in a connected proper interval graph the
// first node of UmbrellaOrder lies only in the first maximal clique, so
// its eccentricity is the diameter.
func TestUmbrellaFirstEccentricityIsDiameter(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, span := range []float64{8, 25, 60} {
			g := gen.FromIntervals(gen.UnitIntervals(60, span, seed))
			for _, comp := range g.Components() {
				sub := g.InducedSubgraph(comp)
				order, err := UmbrellaOrder(sub)
				if err != nil {
					t.Fatalf("seed %d span %v: %v", seed, span, err)
				}
				ecc := 0
				for _, d := range sub.BFSDistances(order[0]) {
					ecc = max(ecc, d)
				}
				if want := sub.Diameter(); ecc != want {
					t.Fatalf("seed %d span %v: eccentricity of %d = %d, BFS oracle %d", seed, span, order[0], ecc, want)
				}
			}
		}
	}
}
