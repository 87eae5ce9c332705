package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func triangle() *graph.Graph {
	return graph.FromEdges(nil, [][2]graph.ID{{1, 2}, {2, 3}, {1, 3}})
}

func TestColoringChecker(t *testing.T) {
	g := triangle()
	good := map[graph.ID]int{1: 1, 2: 2, 3: 3}
	used, err := Coloring(g, good)
	if err != nil || used != 3 {
		t.Fatalf("good coloring rejected: %v, used %d", err, used)
	}
	for name, bad := range map[string]map[graph.ID]int{
		"missing":      {1: 1, 2: 2},
		"non-positive": {1: 0, 2: 2, 3: 3},
		"conflict":     {1: 1, 2: 1, 3: 2},
	} {
		if _, err := Coloring(g, bad); err == nil {
			t.Errorf("%s coloring accepted", name)
		}
	}
}

func TestIndependentSetChecker(t *testing.T) {
	g := triangle()
	if err := IndependentSet(g, graph.NewSet(1)); err != nil {
		t.Fatal(err)
	}
	if err := IndependentSet(g, graph.NewSet(1, 2)); err == nil {
		t.Fatal("adjacent pair accepted")
	}
	if err := IndependentSet(g, graph.NewSet(99)); err == nil {
		t.Fatal("foreign node accepted")
	}
	if err := IndependentSet(g, nil); err != nil {
		t.Fatal("empty set rejected")
	}
}

// independentSetPairwise is the pairwise rule IndependentSet replaced,
// kept as its oracle: every member in g, then the first adjacent pair
// (is[i], is[j]) by smallest i, then smallest j > i.
func independentSetPairwise(g *graph.Graph, is graph.Set) error {
	for _, v := range is {
		if !g.HasNode(v) {
			return fmt.Errorf("node %d not in graph", v)
		}
	}
	for i := 0; i < len(is); i++ {
		for j := i + 1; j < len(is); j++ {
			if g.HasEdge(is[i], is[j]) {
				return fmt.Errorf("members %d and %d are adjacent", is[i], is[j])
			}
		}
	}
	return nil
}

// TestIndependentSetMatchesPairwise compares IndependentSet with the
// pairwise oracle on random graphs and member lists that are sorted,
// shuffled, duplicated or hold nodes outside g, independent or not:
// both must return the same error text, naming the same pair.
func TestIndependentSetMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 3000 {
		n := 1 + rng.Intn(30)
		g := graph.New()
		for v := range n {
			g.AddNode(graph.ID(v * 3))
		}
		for range rng.Intn(n * 2) {
			g.AddEdge(graph.ID(rng.Intn(n)*3), graph.ID(rng.Intn(n)*3))
		}
		var is graph.Set
		if trial%2 == 0 { // greedily independent, so most pass every check
			for _, v := range g.Nodes() {
				if independentSetPairwise(g, append(is, v)) == nil {
					is = append(is, v)
				}
			}
		} else {
			for range rng.Intn(n + 1) {
				is = append(is, graph.ID(rng.Intn(n)*3))
			}
		}
		switch trial % 5 {
		case 0: // sorted, deduplicated
			is = graph.NewSet(is...)
		case 1: // shuffled
			rng.Shuffle(len(is), func(a, b int) { is[a], is[b] = is[b], is[a] })
		case 2: // duplicated
			for range 1 + rng.Intn(3) {
				if len(is) > 0 {
					is = append(is, is[rng.Intn(len(is))])
				}
			}
			rng.Shuffle(len(is), func(a, b int) { is[a], is[b] = is[b], is[a] })
		case 3: // a node outside g
			is = append(is, graph.ID(rng.Intn(3*n+3)))
			rng.Shuffle(len(is), func(a, b int) { is[a], is[b] = is[b], is[a] })
		}
		got, want := IndependentSet(g, is), independentSetPairwise(g, is)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, set %v: IndependentSet = %v, pairwise = %v", trial, is, got, want)
		}
	}
}

func TestMaximalIndependentSetChecker(t *testing.T) {
	g := graph.FromEdges(nil, [][2]graph.ID{{1, 2}, {2, 3}})
	if err := MaximalIndependentSet(g, graph.NewSet(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := MaximalIndependentSet(g, graph.NewSet(2)); err != nil {
		t.Fatal(err)
	}
	if err := MaximalIndependentSet(g, graph.NewSet(1)); err == nil {
		t.Fatal("non-maximal set accepted")
	}
	if err := MaximalIndependentSet(g, graph.NewSet(1, 2)); err == nil {
		t.Fatal("dependent set accepted")
	}
}

func TestBruteForceAlpha(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{triangle(), 1},
		{graph.FromEdges(nil, [][2]graph.ID{{1, 2}, {3, 4}}), 2},
		{graph.FromEdges([]graph.ID{7}, nil), 1},
		{graph.New(), 0},
	}
	for i, c := range cases {
		got, err := BruteForceAlpha(c.g)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("case %d: α = %d, want %d", i, got, c.want)
		}
	}
	// Size guard.
	big := graph.New()
	for i := 0; i < 31; i++ {
		big.AddNode(graph.ID(i))
	}
	if _, err := BruteForceAlpha(big); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestBruteForceChromatic(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{triangle(), 3},
		{graph.FromEdges(nil, [][2]graph.ID{{1, 2}, {2, 3}}), 2},
		{graph.FromEdges([]graph.ID{7}, nil), 1},
		{graph.New(), 0},
		// C5 needs 3 colors.
		{graph.FromEdges(nil, [][2]graph.ID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}), 3},
	}
	for i, c := range cases {
		got, err := BruteForceChromatic(c.g)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("case %d: χ = %d, want %d", i, got, c.want)
		}
	}
	big := graph.New()
	for i := 0; i < 21; i++ {
		big.AddNode(graph.ID(i))
	}
	if _, err := BruteForceChromatic(big); err == nil {
		t.Fatal("oversized graph accepted")
	}
}
