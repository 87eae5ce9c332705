package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chordal"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/verify"
)

func TestExtendColoringGreedy(t *testing.T) {
	// No fixed colors: behaves like optimal left-endpoint greedy.
	for seed := int64(0); seed < 6; seed++ {
		ivs := gen.RandomIntervals(40, 12, 3, seed)
		g := gen.FromIntervals(ivs)
		path := interval.CliquePathFromModel(ivs)
		omega, _ := chordal.CliqueNumber(g)
		colors, err := ExtendColoring(g, path, nil, omega)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		used, err := verify.Coloring(g, colors)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if used > omega {
			t.Fatalf("seed %d: used %d > ω = %d", seed, used, omega)
		}
	}
}

func TestExtendColoringRespectsFixed(t *testing.T) {
	// Path 0-1-2-3-4 with ends fixed to color 1: odd positions need a
	// second color, middle gets recolored consistently.
	g := gen.Path(5)
	path := []graph.Set{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	fixed := map[graph.ID]int{0: 1, 4: 1}
	colors, err := ExtendColoring(g, path, fixed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if colors[0] != 1 || colors[4] != 1 {
		t.Fatal("fixed colors changed")
	}
	if _, err := verify.Coloring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestExtendColoringNeedsBacktracking(t *testing.T) {
	// Path 0-1-2-3, palette 2, only node 3 fixed to color 1. Plain greedy
	// (smallest-first) paints 0→1, 1→2, 2→1 and collides with the fixed
	// node; the backtracking must recover with 0→2, 1→1, 2→2.
	g := gen.Path(4)
	path := []graph.Set{{0, 1}, {1, 2}, {2, 3}}
	colors, err := ExtendColoring(g, path, map[graph.ID]int{3: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Coloring(g, colors); err != nil {
		t.Fatal(err)
	}
	if colors[3] != 1 {
		t.Fatal("fixed color changed")
	}
	// Same strip with both parities pinned incompatibly is infeasible.
	if _, err := ExtendColoring(g, path, map[graph.ID]int{0: 2, 3: 2}, 2); err == nil {
		t.Fatal("expected infeasibility: 0=2 and 3=2 cannot coexist with 2 colors")
	}
}

func TestExtendColoringInfeasible(t *testing.T) {
	// Triangle with palette 2 is infeasible.
	g := gen.Complete(3)
	path := []graph.Set{{0, 1, 2}}
	if _, err := ExtendColoring(g, path, nil, 2); err == nil {
		t.Fatal("expected infeasibility error")
	}
	// Conflicting fixed colors are rejected.
	g2 := gen.Path(2)
	if _, err := ExtendColoring(g2, []graph.Set{{0, 1}}, map[graph.ID]int{0: 1, 1: 1}, 3); err == nil {
		t.Fatal("expected fixed-conflict error")
	}
	// Fixed color outside palette is rejected.
	if _, err := ExtendColoring(g2, []graph.Set{{0, 1}}, map[graph.ID]int{0: 5}, 3); err == nil {
		t.Fatal("expected out-of-palette error")
	}
}

func TestRecolorZone(t *testing.T) {
	g := gen.Path(10)
	zone := recolorZone(g, graph.Set{0}, 3)
	if !zone.Equal(graph.NewSet(1, 2, 3)) {
		t.Fatalf("zone = %v, want {1,2,3}", zone)
	}
	// Boundary nodes themselves are excluded.
	if z := recolorZone(g, graph.Set{5}, 0); len(z) != 0 {
		t.Fatalf("radius 0 should give empty zone, got %v", z)
	}
}

func TestColIntGraphQuality(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ivs := gen.RandomIntervals(120, 40, 4, seed)
		g := gen.FromIntervals(ivs)
		path := interval.CliquePathFromModel(ivs)
		omega, _ := chordal.CliqueNumber(g)
		for _, k := range []int{3, 5, 10} {
			ic, err := ColIntGraph(g, path, k)
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			used, err := verify.Coloring(g, ic.Colors)
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			bound := (k+1)*omega/k + 1
			if used > bound {
				t.Fatalf("seed %d k %d: used %d colors > bound %d (ω=%d)", seed, k, used, bound, omega)
			}
		}
	}
}

func TestColIntGraphLongThinStrip(t *testing.T) {
	// A long path graph forces many blocks.
	g := gen.Path(400)
	var path []graph.Set
	for i := 0; i+1 < 400; i++ {
		path = append(path, graph.NewSet(graph.ID(i), graph.ID(i+1)))
	}
	ic, err := ColIntGraph(g, path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Coloring(g, ic.Colors); err != nil {
		t.Fatal(err)
	}
	if ic.Blocks < 2 {
		t.Fatalf("expected multiple blocks on a long strip, got %d", ic.Blocks)
	}
	if ic.ColorsUsed > 3 {
		t.Fatalf("path colored with %d colors, bound 3", ic.ColorsUsed)
	}
}

func TestColIntGraphEmpty(t *testing.T) {
	ic, err := ColIntGraph(graph.New(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ic.Colors) != 0 {
		t.Fatal("empty graph should give empty coloring")
	}
}

// TestColIntGraphBoundsK: k must lie in [1, maxParam]. Below it the
// error keeps the k ≥ 1 text; above it the error names k, where at
// 2^31−3 the strip kernel's int32 horizon k+3 would wrap. At k =
// maxParam the coloring is proper and within the palette.
func TestColIntGraphBoundsK(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ivs := gen.RandomIntervals(200, 40, 4, seed)
		g := gen.FromIntervals(ivs)
		path := interval.CliquePathFromModel(ivs)
		for _, k := range []int{0, -1, maxParam + 1, 1<<31 - 3} {
			_, err := ColIntGraph(g, path, k)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("got %d", k)) {
				t.Fatalf("seed %d k %d: error %v, want one naming k", seed, k, err)
			}
		}
		ic, err := ColIntGraph(g, path, maxParam)
		if err != nil {
			t.Fatalf("seed %d k maxParam: %v", seed, err)
		}
		used, err := verify.Coloring(g, ic.Colors)
		if err != nil {
			t.Fatalf("seed %d k maxParam: %v", seed, err)
		}
		if used > ic.Palette {
			t.Fatalf("seed %d k maxParam: %d colors, palette %d", seed, used, ic.Palette)
		}
	}
}

func TestColorChordalQuality(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 6, AttachFull: 0.5}, seed)
		omega, _ := chordal.CliqueNumber(g)
		for _, eps := range []float64{1, 0.5, 0.25} {
			cc, err := ColorChordal(g, eps)
			if err != nil {
				t.Fatalf("seed %d eps %v: %v", seed, eps, err)
			}
			used, err := verify.Coloring(g, cc.Colors)
			if err != nil {
				t.Fatalf("seed %d eps %v: %v", seed, eps, err)
			}
			if used > cc.Palette {
				t.Fatalf("seed %d eps %v: used %d > palette %d (ω=%d)", seed, eps, used, cc.Palette, omega)
			}
			// Theorem 3: for ε ≥ 2/χ the bound is (1+ε)χ.
			if eps >= 2/float64(omega) {
				if float64(used) > (1+eps)*float64(omega)+1e-9 {
					t.Fatalf("seed %d eps %v: used %d > (1+ε)χ = %v", seed, eps, used, (1+eps)*float64(omega))
				}
			}
		}
	}
}

func TestColorChordalOnTrees(t *testing.T) {
	// Trees are chordal with χ=2; the +1 slack allows 3 colors.
	g := gen.Tree(200, 5)
	cc, err := ColorChordal(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	used, err := verify.Coloring(g, cc.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used > 3 {
		t.Fatalf("tree colored with %d colors", used)
	}
}

func TestColorChordalErrors(t *testing.T) {
	if _, err := ColorChordal(gen.Cycle(5), 0.5); err == nil {
		t.Fatal("expected error on non-chordal input")
	}
	if _, err := ColorChordal(gen.Path(5), 0); err == nil {
		t.Fatal("expected error on eps = 0")
	}
}

func TestDistributedPruneMatchesCentralized(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		if _, err := ColorChordalDistributed(g, 0.7); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestColorChordalDistributedQuality(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.5}, 11)
	cc, err := ColorChordalDistributed(g, 0.5)
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
	if cc.Rounds <= 0 {
		t.Fatal("distributed run must report rounds")
	}
}

func TestMISIntervalQuality(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ivs := gen.RandomIntervals(150, 60, 3, seed)
		g := gen.FromIntervals(ivs)
		alpha, _ := chordal.IndependenceNumber(g)
		for _, eps := range []float64{1, 0.5, 0.25} {
			res, err := MISInterval(g, eps)
			if err != nil {
				t.Fatalf("seed %d eps %v: %v", seed, eps, err)
			}
			if err := verify.IndependentSet(g, res.Set); err != nil {
				t.Fatalf("seed %d eps %v: %v", seed, eps, err)
			}
			if float64(alpha) > (1+eps)*float64(len(res.Set))+1e-9 {
				t.Fatalf("seed %d eps %v: |I| = %d, α = %d, ratio %v > 1+ε",
					seed, eps, len(res.Set), alpha, float64(alpha)/float64(len(res.Set)))
			}
		}
	}
}

func TestMISIntervalOnLongPath(t *testing.T) {
	g := gen.Path(500)
	alpha := 250
	res, err := MISInterval(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IndependentSet(g, res.Set); err != nil {
		t.Fatal(err)
	}
	if float64(alpha) > 1.5*float64(len(res.Set)) {
		t.Fatalf("|I| = %d, α = %d", len(res.Set), alpha)
	}
}

func TestMISChordalQuality(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, seed)
		alpha, _ := chordal.IndependenceNumber(g)
		for _, eps := range []float64{0.45, 0.25} {
			res, err := MISChordal(g, eps)
			if err != nil {
				t.Fatalf("seed %d eps %v: %v", seed, eps, err)
			}
			if err := verify.IndependentSet(g, res.Set); err != nil {
				t.Fatalf("seed %d eps %v: %v", seed, eps, err)
			}
			if float64(alpha) > (1+eps)*float64(len(res.Set))+1e-9 {
				t.Fatalf("seed %d eps %v: |I| = %d, α = %d", seed, eps, len(res.Set), alpha)
			}
		}
	}
}

// shiftIDs returns g with every node ID moved by delta.
func shiftIDs(g *graph.Graph, delta graph.ID) *graph.Graph {
	var nodes []graph.ID
	for _, v := range g.Nodes() {
		nodes = append(nodes, v+delta)
	}
	var edges [][2]graph.ID
	for _, e := range g.Edges() {
		edges = append(edges, [2]graph.ID{e[0] + delta, e[1] + delta})
	}
	return graph.FromEdges(nodes, edges)
}

// TestMISChordalShiftedIDs runs both MIS entry points on graphs whose
// IDs are negative or near 2^40. The pipelines keep per-node state by
// snapshot index, so the ID range must change neither independence nor
// the (1+ε) bound (an ID-indexed mask panicked on a negative ID and
// allocated in proportion to the largest one).
func TestMISChordalShiftedIDs(t *testing.T) {
	const eps = 0.5
	graphs := map[string]*graph.Graph{
		"path":     gen.Path(300),
		"chordal":  gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 7),
		"interval": gen.RandomInterval(120, 60, 4, 3),
	}
	entries := map[string]func(*graph.Graph, float64) (*ChordalMISResult, error){
		"MISChordal":            MISChordal,
		"MISChordalDistributed": MISChordalDistributed,
	}
	for name, base := range graphs {
		for _, delta := range []graph.ID{-100000, 1<<40 - 7} {
			g := shiftIDs(base, delta)
			alpha, err := chordal.IndependenceNumber(g)
			if err != nil {
				t.Fatal(err)
			}
			for entry, run := range entries {
				res, err := run(g, eps)
				if err != nil {
					t.Fatalf("%s %s shift %d: %v", entry, name, delta, err)
				}
				if err := verify.IndependentSet(g, res.Set); err != nil {
					t.Fatalf("%s %s shift %d: %v", entry, name, delta, err)
				}
				if float64(alpha) > (1+eps)*float64(len(res.Set))+1e-9 {
					t.Fatalf("%s %s shift %d: |I| = %d, α = %d", entry, name, delta, len(res.Set), alpha)
				}
			}
		}
	}
}

func TestMISChordalErrors(t *testing.T) {
	if _, err := MISChordal(gen.Path(5), 0); err == nil {
		t.Fatal("expected error for eps = 0")
	}
	if _, err := MISChordal(gen.Path(5), 1); err == nil {
		t.Fatal("expected error for eps = 1")
	}
	if _, err := MISChordal(gen.Cycle(4), 0.3); err == nil {
		t.Fatal("expected error for non-chordal input")
	}
}

// TestDistributedPipelinesRejectNonChordal checks that both distributed
// pipelines reject non-chordal input with the chordality error, on the
// LOCAL engine and on a partition. Without the prune's up-front check,
// GNP(60, 0.08, 1) stalls with "iteration 2 peeled nothing" and C6
// completes the prune, failing only in the centralized cross-check.
func TestDistributedPipelinesRejectNonChordal(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"C6": gen.Cycle(6), "GNP": gen.GNP(60, 0.08, 1)} {
		_, notChordal := chordal.PEO(g)
		if notChordal == nil {
			t.Fatalf("%s: reference accepted the graph", name)
		}
		want := "distributed prune: " + notChordal.Error()
		for _, parts := range []int{0, 2} {
			var part *dist.Partition
			if parts > 0 {
				part = dist.NewLocalPartition(graph.NewIndexed(g), parts)
			}
			_, errColor := ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, nil, part)
			_, errMIS := MISChordalDistributedFaultyPart(g, 0.5, nil, nil, nil, part)
			for pipeline, err := range map[string]error{"coloring": errColor, "MIS": errMIS} {
				if err == nil || err.Error() != want {
					t.Errorf("%s %s, %d partitions: error %v, want %q", name, pipeline, parts, err, want)
				}
			}
		}
	}
}

func TestAbsorbingMISIsMaximum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := gen.RandomInterval(30, 10, 2.5, seed)
		alpha, _ := chordal.IndependenceNumber(g)
		is := AbsorbingMIS(g, g, nil)
		if err := verify.IndependentSet(g, is); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(is) != alpha {
			t.Fatalf("seed %d: |IS| = %d, α = %d", seed, len(is), alpha)
		}
	}
}

func TestAbsorbingMISAbsorbs(t *testing.T) {
	// A path leaning on an anchor at its right end: the absorbing MIS
	// must cover the path so that α(Γ[IH]) = |IH| — taking far-first
	// simplicial vertices achieves it, e.g. on P4 anchored right, IS
	// {0,2} absorbs {0,1,2,3}... verify the defining equation.
	g := gen.Path(6) // 0..5
	anchorHost := g.Clone()
	anchorHost.AddEdge(5, 100)
	anchorHost.AddEdge(100, 101)
	anchor := graph.NewSet(100)
	ih := AbsorbingMIS(g, anchorHost, anchor)
	if len(ih) != 3 {
		t.Fatalf("|IH| = %d, want α(P6) = 3", len(ih))
	}
	// Absorption: α over Γ_host[IH] restricted to the path equals |IH|.
	var closed graph.Set
	for _, v := range ih {
		closed = append(closed, v)
		for _, u := range anchorHost.Neighbors(v) {
			if g.HasNode(u) {
				closed = append(closed, u)
			}
		}
	}
	closed = graph.NewSet(closed...)
	a, err := chordal.IndependenceNumber(g.InducedSubgraph(closed))
	if err != nil {
		t.Fatal(err)
	}
	if a != len(ih) {
		t.Fatalf("absorption violated: α(Γ[IH]) = %d, |IH| = %d", a, len(ih))
	}
	// Far-first ordering: node 0 (farthest from the anchor) must be in IH.
	if !ih.Contains(0) {
		t.Fatalf("far end not selected first: %v", ih)
	}
}
