package interval

import (
	"testing"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestCliquePathFromModelSimple(t *testing.T) {
	// Three intervals: a-b overlap, b-c overlap, a-c don't.
	ivs := []gen.Interval{
		{Node: 1, Lo: 0, Hi: 2},
		{Node: 2, Lo: 1, Hi: 4},
		{Node: 3, Lo: 3, Hi: 5},
	}
	path := CliquePathFromModel(ivs)
	if len(path) != 2 {
		t.Fatalf("got %d cliques: %v", len(path), path)
	}
	if !path[0].Equal(graph.NewSet(1, 2)) || !path[1].Equal(graph.NewSet(2, 3)) {
		t.Fatalf("clique path = %v", path)
	}
}

func TestCliquePathFromModelValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ivs := gen.RandomIntervals(40, 12, 3, seed)
		g := gen.FromIntervals(ivs)
		path := CliquePathFromModel(ivs)
		if err := ValidCliquePath(g, path); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCliquePathMatchesChordalCliques(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ivs := gen.RandomIntervals(30, 10, 2.5, seed)
		g := gen.FromIntervals(ivs)
		path := CliquePathFromModel(ivs)
		cliques, err := chordal.MaximalCliques(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != len(cliques) {
			t.Fatalf("seed %d: path has %d cliques, chordal finds %d", seed, len(path), len(cliques))
		}
	}
}

func TestModelFromCliquePathRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ivs := gen.RandomIntervals(35, 10, 2.5, seed)
		g := gen.FromIntervals(ivs)
		path := CliquePathFromModel(ivs)
		back := ModelFromCliquePath(path)
		g2 := gen.FromIntervals(back)
		if !g.Equal(g2) {
			t.Fatalf("seed %d: model→path→model changed the graph", seed)
		}
	}
}

func TestDominatedRemovalKeepsAlpha(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.RandomInterval(40, 10, 3, seed)
		reduced := RemoveDominated(g)
		a1, err := chordal.IndependenceNumber(g)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := chordal.IndependenceNumber(reduced)
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Fatalf("seed %d: α changed from %d to %d after reduction", seed, a1, a2)
		}
	}
}

func TestDominatedOnStar(t *testing.T) {
	// In a star the center's closed neighborhood strictly contains each
	// leaf's, so only the center is dominated.
	g := gen.Star(6)
	dom := Dominated(g)
	if !dom.Equal(graph.NewSet(0)) {
		t.Fatalf("Dominated(star) = %v, want {0}", dom)
	}
}

// IsProperInterval reports whether the umbrella ordering construction
// succeeds on g, i.e. g is a proper (= unit) interval graph.
func IsProperInterval(g *graph.Graph) bool {
	_, err := UmbrellaOrder(g)
	return err == nil
}

func TestRemoveDominatedYieldsProperInterval(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.RandomInterval(45, 12, 3, seed)
		reduced := RemoveDominated(g)
		if !IsProperInterval(reduced) {
			t.Fatalf("seed %d: reduction did not yield a proper interval graph", seed)
		}
	}
}

func TestUmbrellaOrderOnUnitIntervals(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.FromIntervals(gen.UnitIntervals(40, 20, seed))
		order, err := UmbrellaOrder(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(order) != g.NumNodes() {
			t.Fatalf("seed %d: order has %d nodes, want %d", seed, len(order), g.NumNodes())
		}
		seen := make(map[graph.ID]bool)
		for _, v := range order {
			if seen[v] {
				t.Fatalf("seed %d: duplicate %d in order", seed, v)
			}
			seen[v] = true
		}
	}
}

func TestUmbrellaOrderRejectsNonProper(t *testing.T) {
	// The claw K_{1,3} is interval but not proper interval.
	claw := gen.Star(4)
	if _, err := UmbrellaOrder(claw); err == nil {
		t.Fatal("UmbrellaOrder accepted the claw")
	}
	if IsProperInterval(claw) {
		t.Fatal("claw reported as proper interval")
	}
}

func TestUmbrellaOrderOnPath(t *testing.T) {
	g := gen.Path(10)
	order, err := UmbrellaOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	// A path's umbrella order must be one of the two traversals.
	if order[0] != 0 && order[0] != 9 {
		t.Fatalf("umbrella order starts at %d", order[0])
	}
	for i := 0; i+1 < len(order); i++ {
		if !g.HasEdge(order[i], order[i+1]) {
			t.Fatalf("order %v is not a path traversal", order)
		}
	}
}

func TestLexBFSVisitsComponent(t *testing.T) {
	g := gen.Path(6)
	g.AddEdge(100, 101)
	order := LexBFS(g, 0, nil)
	if len(order) != 6 {
		t.Fatalf("LexBFS visited %d nodes, want 6", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("LexBFS must start at the start vertex, got %d", order[0])
	}
}
