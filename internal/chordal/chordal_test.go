package chordal

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestIsChordalPositive(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New()},
		{"single", gen.Path(1)},
		{"path", gen.Path(10)},
		{"tree", gen.Tree(30, 1)},
		{"complete", gen.Complete(6)},
		{"triangle", gen.Cycle(3)},
		{"star", gen.Star(8)},
		{"interval", gen.RandomInterval(40, 10, 3, 2)},
		{"ktree", gen.KTree(25, 3, 3)},
	}
	for _, c := range cases {
		if !IsChordal(c.g) {
			t.Errorf("%s should be chordal", c.name)
		}
	}
}

func TestIsChordalNegative(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"C4", gen.Cycle(4)},
		{"C5", gen.Cycle(5)},
		{"C8", gen.Cycle(8)},
	}
	// 3x3 grid contains C4.
	grid := graph.New()
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := graph.ID(r*3 + c)
			if c+1 < 3 {
				grid.AddEdge(v, v+1)
			}
			if r+1 < 3 {
				grid.AddEdge(v, v+3)
			}
		}
	}
	cases = append(cases, struct {
		name string
		g    *graph.Graph
	}{"grid3x3", grid})
	for _, c := range cases {
		if IsChordal(c.g) {
			t.Errorf("%s should not be chordal", c.name)
		}
	}
}

func TestRandomChordalIsChordal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, seed)
		if !IsChordal(g) {
			t.Fatalf("seed %d: RandomChordal output is not chordal", seed)
		}
	}
}

func TestPEOErrorsOnNonChordal(t *testing.T) {
	if _, err := PEO(gen.Cycle(5)); err == nil {
		t.Fatal("PEO on C5 should fail")
	}
	if _, err := MaximalCliques(gen.Cycle(4)); err == nil {
		t.Fatal("MaximalCliques on C4 should fail")
	}
	if _, err := CliqueNumber(gen.Cycle(4)); err == nil {
		t.Fatal("CliqueNumber on C4 should fail")
	}
	if _, err := OptimalColoring(gen.Cycle(4)); err == nil {
		t.Fatal("OptimalColoring on C4 should fail")
	}
	if _, err := MaximumIndependentSet(gen.Cycle(4)); err == nil {
		t.Fatal("MaximumIndependentSet on C4 should fail")
	}
}

func TestMCSIsPEOOnChordal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(50, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.3}, seed)
		order := MCS(g)
		if len(order) != g.NumNodes() {
			t.Fatalf("MCS returned %d nodes, want %d", len(order), g.NumNodes())
		}
		if !IsPEO(g, order) {
			t.Fatalf("seed %d: MCS order is not a PEO", seed)
		}
	}
}

func TestIsPEORejectsBadOrders(t *testing.T) {
	// On P3 = a-b-c, order (b, a, c) is not a PEO: b's later neighbors
	// {a, c} are not adjacent.
	g := gen.Path(3)
	if IsPEO(g, []graph.ID{1, 0, 2}) {
		t.Fatal("middle-first path order accepted as PEO")
	}
	if IsPEO(g, []graph.ID{0, 1}) {
		t.Fatal("wrong-length order accepted")
	}
	if IsPEO(g, []graph.ID{0, 1, 1}) {
		t.Fatal("order with duplicates accepted")
	}
}

func TestMaximalCliquesSmall(t *testing.T) {
	g := graph.FromEdges(nil, [][2]graph.ID{{1, 2}, {2, 3}, {1, 3}, {3, 4}})
	cliques, err := MaximalCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques: %v", len(cliques), cliques)
	}
	found := map[string]bool{}
	for _, c := range cliques {
		switch {
		case c.Equal(graph.NewSet(1, 2, 3)):
			found["tri"] = true
		case c.Equal(graph.NewSet(3, 4)):
			found["edge"] = true
		default:
			t.Fatalf("unexpected clique %v", c)
		}
	}
	if !found["tri"] || !found["edge"] {
		t.Fatalf("cliques = %v", cliques)
	}
}

func TestMaximalCliquesProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		cliques, err := MaximalCliques(g)
		if err != nil {
			t.Fatal(err)
		}
		// At most n maximal cliques in a chordal graph.
		if len(cliques) > g.NumNodes() {
			t.Fatalf("seed %d: %d cliques > n=%d", seed, len(cliques), g.NumNodes())
		}
		covered := make(map[[2]graph.ID]bool)
		for _, c := range cliques {
			if !g.IsClique(c) {
				t.Fatalf("seed %d: %v is not a clique", seed, c)
			}
			// Maximality: no outside vertex adjacent to all members.
			for _, v := range g.Nodes() {
				if c.Contains(v) {
					continue
				}
				all := true
				for _, u := range c {
					if !g.HasEdge(v, u) {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("seed %d: clique %v not maximal (extendable by %d)", seed, c, v)
				}
			}
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					covered[[2]graph.ID{c[i], c[j]}] = true
				}
			}
		}
		// Every edge lies in some maximal clique.
		for _, e := range g.Edges() {
			if !covered[[2]graph.ID{e[0], e[1]}] {
				t.Fatalf("seed %d: edge %v not covered by any clique", seed, e)
			}
		}
		// No clique contains another.
		for i := range cliques {
			for j := range cliques {
				if i != j && cliques[i].SubsetOf(cliques[j]) {
					t.Fatalf("seed %d: clique %v ⊆ %v", seed, cliques[i], cliques[j])
				}
			}
		}
	}
}

func TestCliqueNumberKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.New(), 0},
		{"single", gen.Path(1), 1},
		{"path", gen.Path(10), 2},
		{"K6", gen.Complete(6), 6},
		{"star", gen.Star(9), 2},
		{"ktree3", gen.KTree(20, 3, 5), 4},
	}
	for _, c := range cases {
		got, err := CliqueNumber(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: ω = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOptimalColoringUsesOmegaColors(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := gen.RandomChordal(50, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.5}, seed)
		colors, err := OptimalColoring(g)
		if err != nil {
			t.Fatal(err)
		}
		used, err := verify.Coloring(g, colors)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		omega, _ := CliqueNumber(g)
		if used != omega {
			t.Fatalf("seed %d: used %d colors, χ = ω = %d", seed, used, omega)
		}
	}
}

func TestOptimalColoringMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(12, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.5}, seed)
		colors, err := OptimalColoring(g)
		if err != nil {
			t.Fatal(err)
		}
		used, err := verify.Coloring(g, colors)
		if err != nil {
			t.Fatal(err)
		}
		want, err := verify.BruteForceChromatic(g)
		if err != nil {
			t.Fatal(err)
		}
		if used != want {
			t.Fatalf("seed %d: coloring uses %d, brute force χ = %d", seed, used, want)
		}
	}
}

func TestGavrilMISMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.RandomChordal(18, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		is, err := MaximumIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.IndependentSet(g, is); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := verify.BruteForceAlpha(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(is) != want {
			t.Fatalf("seed %d: |IS| = %d, α = %d", seed, len(is), want)
		}
	}
}

func TestGavrilMISOnPath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 10, 11} {
		g := gen.Path(n)
		is, err := MaximumIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		want := (n + 1) / 2
		if len(is) != want {
			t.Fatalf("path(%d): |IS| = %d, want %d", n, len(is), want)
		}
	}
}

func TestIndependenceNumber(t *testing.T) {
	got, err := IndependenceNumber(gen.Star(10))
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("α(star10) = %d, want 9", got)
	}
}

// TestAllLabeledCounts pins the enumeration to the labeled chordal graph
// counts (OEIS A058862) for n ≤ 5, with every graph on nodes 1..n, no
// edge set twice, and every graph accepted by the index-space kernel's
// PEO check too: so it yields each labeled chordal graph exactly once.
func TestAllLabeledCounts(t *testing.T) {
	var k Elim
	for n, want := range []int{1: 1, 2: 2, 3: 8, 4: 61, 5: 822} {
		if n == 0 {
			continue
		}
		seen := make(map[string]bool)
		AllLabeled(n, func(g *graph.Graph) {
			if g.NumNodes() != n || g.Nodes()[0] != 1 || g.Nodes()[n-1] != graph.ID(n) {
				t.Fatalf("n=%d: nodes %v, want 1..%d", n, g.Nodes(), n)
			}
			ix := graph.NewIndexed(g)
			_, rowPtr, cols := ix.CSR()
			k.MCS(rowPtr, cols, ix.BFSOrder())
			if err := k.CheckPEO(); err != nil {
				t.Fatalf("n=%d edges %v: %v", n, g.Edges(), err)
			}
			key := fmt.Sprint(g.Edges())
			if seen[key] {
				t.Fatalf("n=%d: edges %v yielded twice", n, g.Edges())
			}
			seen[key] = true
		})
		if len(seen) != want {
			t.Fatalf("n=%d: %d labeled chordal graphs, want %d", n, len(seen), want)
		}
	}
}
