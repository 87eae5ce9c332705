package cliquetree

import (
	"testing"

	"repro/internal/chordal"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/graph"
)

func mustForest(t *testing.T, g *graph.Graph) *Forest {
	t.Helper()
	f, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWCIGFig1Weights(t *testing.T) {
	g := figures.Fig1()
	cliques, err := chordal.MaximalCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != 15 {
		t.Fatalf("Fig1 has %d maximal cliques, want 15", len(cliques))
	}
	find := func(name string) int {
		want := figures.Fig1CliqueNames[name]
		for i, c := range cliques {
			if c.Equal(want) {
				return i
			}
		}
		t.Fatalf("clique %s = %v not found", name, want)
		return -1
	}
	edges := WCIG(cliques)
	weightOf := func(a, b int) int {
		if a > b {
			a, b = b, a
		}
		for _, e := range edges {
			if e.A == a && e.B == b {
				return e.Weight
			}
		}
		return 0
	}
	cases := []struct {
		a, b string
		want int
	}{
		{"C1", "C2", 2},   // {2,3}
		{"C2", "C5", 2},   // {2,4}
		{"C3", "C4", 2},   // {5,6}
		{"C6", "C7", 2},   // {9,10}
		{"C8", "C9", 2},   // {12,13}
		{"C10", "C11", 2}, // {15,16}
		{"C5", "C6", 1},   // {8}
		{"C1", "C5", 1},   // {2}
		{"C13", "C14", 1}, // {21}
		{"C1", "C3", 0},   // disjoint
		{"C6", "C8", 0},   // disjoint
	}
	for _, c := range cases {
		if got := weightOf(find(c.a), find(c.b)); got != c.want {
			t.Errorf("weight(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestForestFig1Structure(t *testing.T) {
	g := figures.Fig1()
	f := mustForest(t, g)
	if f.NumVertices() != 15 {
		t.Fatalf("forest has %d vertices, want 15", f.NumVertices())
	}
	// Fig 1's graph is connected, so the forest is a tree with 14 edges.
	if got := len(f.Edges()); got != 14 {
		t.Fatalf("forest has %d edges, want 14", got)
	}
	// Every clique matches one of the paper's labels.
	for i := 0; i < f.NumVertices(); i++ {
		found := false
		for _, want := range figures.Fig1CliqueNames {
			if f.Clique(i).Equal(want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("clique %v does not appear in Figure 2", f.Clique(i))
		}
	}
	// All weight-2 edges are bridges between components of the weight-2
	// subgraph and must be in any maximum-weight spanning forest.
	mustHave := [][2]string{
		{"C1", "C2"}, {"C2", "C5"}, {"C3", "C4"},
		{"C6", "C7"}, {"C8", "C9"}, {"C10", "C11"},
		{"C5", "C6"}, // unique bridge between the two halves
	}
	idx := func(name string) int {
		want := figures.Fig1CliqueNames[name]
		for i := 0; i < f.NumVertices(); i++ {
			if f.Clique(i).Equal(want) {
				return i
			}
		}
		t.Fatalf("missing clique %s", name)
		return -1
	}
	for _, e := range mustHave {
		if !f.HasEdge(idx(e[0]), idx(e[1])) {
			t.Errorf("forest misses required edge %s-%s", e[0], e[1])
		}
	}
	// Clique-forest property: every node's subtree is connected.
	for _, v := range g.Nodes() {
		if !f.SubtreeConnected(v) {
			t.Errorf("T(%d) is disconnected", v)
		}
	}
}

func TestForestIsMaximumWeight(t *testing.T) {
	// The canonical forest's total weight must equal the weight of a
	// weight-only Kruskal forest.
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(50, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		cliques, err := chordal.MaximalCliques(g)
		if err != nil {
			t.Fatal(err)
		}
		edges := WCIG(cliques)
		canonical := MaxWeightSpanningForest(cliques, edges)
		weightByPair := make(map[[2]int]int, len(edges))
		for _, e := range edges {
			weightByPair[[2]int{e.A, e.B}] = e.Weight
		}
		total := 0
		for _, e := range canonical {
			total += weightByPair[[2]int{e[0], e[1]}]
		}
		best := weightOnlyForestWeight(len(cliques), edges)
		if total != best {
			t.Fatalf("seed %d: canonical forest weight %d != max %d", seed, total, best)
		}
	}
}

// weightOnlyForestWeight computes the max spanning forest weight with
// plain weight-descending Kruskal.
func weightOnlyForestWeight(n int, edges []WeightedEdge) int {
	sorted := make([]WeightedEdge, len(edges))
	copy(sorted, edges)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].Weight > sorted[i].Weight {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	uf := newUnionFind(n)
	total := 0
	for _, e := range sorted {
		if uf.union(e.A, e.B) {
			total += e.Weight
		}
	}
	return total
}

func TestForestPropertiesRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.3}, seed)
		f := mustForest(t, g)
		// Subtree connectivity for every node.
		for _, v := range g.Nodes() {
			if !f.SubtreeConnected(v) {
				t.Fatalf("seed %d: T(%d) disconnected", seed, v)
			}
		}
		// Adjacency characterization: uv ∈ E iff φ(u) ∩ φ(v) ≠ ∅.
		for _, u := range g.Nodes() {
			for _, v := range g.Nodes() {
				if u >= v {
					continue
				}
				share := false
				phiV := make(map[int]bool)
				for _, i := range f.Phi(v) {
					phiV[i] = true
				}
				for _, i := range f.Phi(u) {
					if phiV[i] {
						share = true
						break
					}
				}
				if share != g.HasEdge(u, v) {
					t.Fatalf("seed %d: edge %d-%d=%v but share=%v", seed, u, v, g.HasEdge(u, v), share)
				}
			}
		}
		// Forest is acyclic and spans each WCIG component: |E| = |C| - #components.
		if got, want := len(f.Edges()), f.NumVertices()-len(f.Components()); got != want {
			t.Fatalf("seed %d: %d edges, want %d", seed, got, want)
		}
	}
}

func TestLemma2SubtreeEqualsLocalMWSF(t *testing.T) {
	// Lemma 2: for every node v, the unique MWSF of W_G[φ(v)] equals the
	// induced subtree T(v).
	g := figures.Fig1()
	f := mustForest(t, g)
	for _, v := range g.Nodes() {
		phiIdx := f.Phi(v)
		local := make([]graph.Set, len(phiIdx))
		for i, ci := range phiIdx {
			local[i] = f.Clique(ci)
		}
		mwsf := MaxWeightSpanningForest(local, WCIG(local))
		// Every local MWSF edge must be a global forest edge between the
		// corresponding cliques, and the counts must match.
		induced := 0
		for _, e := range f.Edges() {
			inPhi := func(x int) bool {
				for _, ci := range phiIdx {
					if ci == x {
						return true
					}
				}
				return false
			}
			if inPhi(e[0]) && inPhi(e[1]) {
				induced++
			}
		}
		if len(mwsf) != induced {
			t.Fatalf("node %d: local MWSF has %d edges, induced subtree %d", v, len(mwsf), induced)
		}
		for _, e := range mwsf {
			gi, gj := phiIdx[e[0]], phiIdx[e[1]]
			if !f.HasEdge(gi, gj) {
				t.Fatalf("node %d: local MWSF edge %v-%v not in global forest",
					v, f.Clique(gi), f.Clique(gj))
			}
		}
	}
}

func TestLocalViewFig34(t *testing.T) {
	g := figures.Fig1()
	ball := g.InducedSubgraph(g.Ball(figures.Fig3Center, figures.Fig3Radius))
	lv, err := ComputeLocalView(ball, figures.Fig3Center, figures.Fig3Radius)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: the view contains exactly C1,C2,C3,C5,C6,C7,C8,C9.
	if len(lv.Cliques) != len(figures.Fig4ViewCliques) {
		t.Fatalf("view has %d cliques, want %d: %v", len(lv.Cliques), len(figures.Fig4ViewCliques), lv.Cliques)
	}
	for _, name := range figures.Fig4ViewCliques {
		if lv.FindClique(figures.Fig1CliqueNames[name]) == -1 {
			t.Errorf("view misses clique %s = %v", name, figures.Fig1CliqueNames[name])
		}
	}
	// The view's edges are a sub-picture of the global forest.
	f := mustForest(t, g)
	if err := lv.ConsistentWith(f); err != nil {
		t.Fatal(err)
	}
	// Figure 4's bold edges form the subtree induced by C′, which has 7
	// edges (8 cliques, connected).
	if len(lv.Edges) != 7 {
		t.Fatalf("view has %d edges, want 7", len(lv.Edges))
	}
}

func TestLocalViewConsistencyRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.RandomChordal(50, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		f := mustForest(t, g)
		for _, d := range []int{2, 3, 5} {
			for _, v := range []graph.ID{0, 10, 25, 49} {
				ball := g.InducedSubgraph(g.Ball(v, d))
				lv, err := ComputeLocalView(ball, v, d)
				if err != nil {
					t.Fatalf("seed %d v %d d %d: %v", seed, v, d, err)
				}
				if err := lv.ConsistentWith(f); err != nil {
					t.Fatalf("seed %d v %d d %d: %v", seed, v, d, err)
				}
			}
		}
	}
}

func TestMaximalCliquesContainingMatchesGlobal(t *testing.T) {
	g := figures.Fig1()
	all, err := chordal.MaximalCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.Nodes() {
		got, err := MaximalCliquesContaining(g, u)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.Set
		for _, c := range all {
			if c.Contains(u) {
				want = append(want, c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: got %d cliques, want %d", u, len(got), len(want))
		}
		for _, w := range want {
			found := false
			for _, c := range got {
				if c.Equal(w) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d: missing clique %v", u, w)
			}
		}
	}
}

func TestIsLinear(t *testing.T) {
	// Theorem 1 concerns the existence of a linear clique forest; the
	// canonical MWSF may resolve weight ties non-linearly even for
	// interval graphs. Here we check IsLinear itself: a path graph's
	// forest is linear, a subdivided claw's (not an interval graph) has a
	// degree-3 clique and is not.
	if f := mustForest(t, gen.Path(8)); !f.IsLinear() {
		t.Fatal("path graph's clique forest should be linear")
	}
	claw := graph.New()
	// Center 0, arms 1-2, 3-4, 5-6 (each arm a path of two nodes).
	for _, e := range [][2]graph.ID{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {0, 5}, {5, 6}} {
		claw.AddEdge(e[0], e[1])
	}
	f := mustForest(t, claw)
	if f.IsLinear() {
		t.Fatal("subdivided claw should not have a linear clique forest")
	}
}

func TestMaximalBinaryPathsOnPathGraph(t *testing.T) {
	// A path graph's clique forest is a path of n-1 edge-cliques: one
	// maximal pendant path covering everything.
	g := gen.Path(8)
	f := mustForest(t, g)
	paths := f.MaximalBinaryPaths()
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Kind != Pendant {
		t.Fatalf("kind = %v, want pendant", p.Kind)
	}
	if len(p.Cliques) != f.NumVertices() {
		t.Fatalf("path covers %d cliques, want %d", len(p.Cliques), f.NumVertices())
	}
	if p.AttachStart != -1 || p.AttachEnd != -1 {
		t.Fatal("whole-component path should have no attachments")
	}
	if got := f.SubpathNodes(p); len(got) != 8 {
		t.Fatalf("SubpathNodes = %v, want all 8 nodes", got)
	}
	if d := f.PathDiameter(g, p); d != 7 {
		t.Fatalf("PathDiameter = %d, want 7", d)
	}
	alpha, err := f.PathIndependenceNumber(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if alpha != 4 {
		t.Fatalf("path independence number = %d, want 4", alpha)
	}
}

func TestMaximalBinaryPathsInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.3}, seed)
		f := mustForest(t, g)
		paths := f.MaximalBinaryPaths()
		covered := make(map[int]bool)
		for _, p := range paths {
			for i, c := range p.Cliques {
				if covered[c] {
					t.Fatalf("seed %d: clique %d in two paths", seed, c)
				}
				covered[c] = true
				if f.Degree(c) > 2 {
					t.Fatalf("seed %d: clique %d in path has degree %d", seed, c, f.Degree(c))
				}
				if i > 0 && !f.HasEdge(p.Cliques[i-1], c) {
					t.Fatalf("seed %d: path cliques %d,%d not adjacent", seed, p.Cliques[i-1], c)
				}
			}
			switch p.Kind {
			case Internal:
				if p.AttachStart == -1 || p.AttachEnd == -1 {
					t.Fatalf("seed %d: internal path lacks attachment", seed)
				}
				if f.Degree(p.AttachStart) < 3 || f.Degree(p.AttachEnd) < 3 {
					t.Fatalf("seed %d: internal path attaches to degree < 3", seed)
				}
			case Pendant:
				if p.AttachStart != -1 {
					t.Fatalf("seed %d: pendant path not leaf-first", seed)
				}
				if p.AttachEnd != -1 && f.Degree(p.AttachEnd) < 3 {
					t.Fatalf("seed %d: pendant attachment has degree < 3", seed)
				}
			default:
				t.Fatalf("seed %d: unclassified path", seed)
			}
		}
		// Every degree-≤2 clique is covered.
		for i := 0; i < f.NumVertices(); i++ {
			if f.Degree(i) <= 2 && !covered[i] {
				t.Fatalf("seed %d: clique %d not covered by any path", seed, i)
			}
		}
	}
}

func TestFig5SubpathNodes(t *testing.T) {
	g := figures.Fig1()
	f := mustForest(t, g)
	var idxs []int
	for _, name := range figures.Fig5Path {
		want := figures.Fig1CliqueNames[name]
		found := -1
		for i := 0; i < f.NumVertices(); i++ {
			if f.Clique(i).Equal(want) {
				found = i
				break
			}
		}
		if found == -1 {
			t.Fatalf("clique %s missing", name)
		}
		idxs = append(idxs, found)
	}
	p := Path{Cliques: idxs, Kind: Internal}
	got := f.SubpathNodes(p)
	if !got.Equal(figures.Fig5PeeledNodes) {
		t.Fatalf("SubpathNodes = %v, want %v", got, figures.Fig5PeeledNodes)
	}
}

func TestCanonicalLessTotalOrder(t *testing.T) {
	g := figures.Fig1()
	cliques, err := chordal.MaximalCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	edges := WCIG(cliques)
	for i := range edges {
		for j := range edges {
			li := CanonicalLess(cliques, edges[i], edges[j])
			lj := CanonicalLess(cliques, edges[j], edges[i])
			if i == j {
				if li || lj {
					t.Fatal("edge compares less than itself")
				}
				continue
			}
			if li == lj {
				t.Fatalf("order not total/antisymmetric for edges %v, %v", edges[i], edges[j])
			}
		}
	}
}
