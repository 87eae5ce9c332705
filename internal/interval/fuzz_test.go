package interval

import (
	"testing"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// FuzzRecognize builds a graph from fuzzed edge bytes; whenever Recognize
// accepts it, the returned model must realize exactly that graph, and
// whenever it rejects a graph built from an interval model, that is a bug.
func FuzzRecognize(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3})
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 0})
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0}) // C4
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 60 {
			data = data[:60]
		}
		g := graph.New()
		for i := 0; i+1 < len(data); i += 2 {
			g.AddEdge(graph.ID(data[i]%24), graph.ID(data[i+1]%24))
		}
		if g.NumNodes() == 0 {
			return
		}
		path, model, err := Recognize(g)
		if err != nil {
			return
		}
		if !gen.FromIntervals(model).Equal(g) {
			t.Fatalf("accepted model does not realize graph %v", g)
		}
		if err := ValidCliquePath(g, path); err != nil {
			t.Fatalf("accepted path invalid: %v", err)
		}
	})
}

// FuzzChordalPipeline checks the chordal toolkit on fuzzed graphs: it
// never panics, and when it accepts a graph, its exact outputs verify.
func FuzzChordalPipeline(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2})
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 50 {
			data = data[:50]
		}
		g := graph.New()
		for i := 0; i+1 < len(data); i += 2 {
			g.AddEdge(graph.ID(data[i]%20), graph.ID(data[i+1]%20))
		}
		if !chordal.IsChordal(g) {
			return
		}
		colors, err := chordal.OptimalColoring(g)
		if err != nil {
			t.Fatalf("coloring chordal graph: %v", err)
		}
		if _, err := verify.Coloring(g, colors); err != nil {
			t.Fatal(err)
		}
		is, err := chordal.MaximumIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.IndependentSet(g, is); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzIntervalDiameter builds an interval model from fuzzed bytes (a
// start and a length per node, so models with many components, nested
// and touching intervals all occur) and checks Diameter over its clique
// path against graph.Diameter's BFS from every node.
func FuzzIntervalDiameter(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 3, 1})
	f.Add([]byte{0, 9, 1, 0, 3, 0, 5, 0, 8, 0})
	f.Add([]byte{0, 1, 2, 1, 4, 1, 20, 1, 21, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 80 {
			data = data[:80]
		}
		var ivs []gen.Interval
		for i := 0; i+1 < len(data); i += 2 {
			lo := float64(data[i] % 64)
			ivs = append(ivs, gen.Interval{Node: graph.ID(i / 2), Lo: lo, Hi: lo + float64(data[i+1]%8)})
		}
		g := gen.FromIntervals(ivs)
		if got, want := Diameter(g, CliquePathFromModel(ivs)), g.Diameter(); got != want {
			t.Fatalf("Diameter = %d, BFS oracle %d, model %v", got, want, ivs)
		}
	})
}
