package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/peel"
	"repro/internal/verify"
)

func TestColorChordalEdgeCases(t *testing.T) {
	// Empty graph.
	cc, err := ColorChordal(graph.New(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Colors) != 0 {
		t.Fatal("empty graph should get empty coloring")
	}
	// Single node.
	single := graph.New()
	single.AddNode(7)
	cc, err = ColorChordal(single, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Colors[7] < 1 {
		t.Fatal("single node uncolored")
	}
	// Complete graph: χ = n, approximation is trivially optimal.
	k6 := gen.Complete(6)
	cc, err = ColorChordal(k6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	used, err := verify.Coloring(k6, cc.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used != 6 {
		t.Fatalf("K6 colored with %d colors", used)
	}
	// Disconnected graph.
	dis := gen.Path(10)
	for _, e := range gen.Complete(4).Edges() {
		dis.AddEdge(e[0]+100, e[1]+100)
	}
	cc, err = ColorChordal(dis, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Coloring(dis, cc.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestColorChordalOnDeepPaths(t *testing.T) {
	// Long paths exercise many blocks and corrections with χ = 2.
	g := gen.Path(600)
	for _, eps := range []float64{1, 0.25} {
		cc, err := ColorChordal(g, eps)
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		used, err := verify.Coloring(g, cc.Colors)
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		if used > 3 {
			t.Fatalf("eps %v: path colored with %d colors", eps, used)
		}
	}
}

func TestColorChordalOnCaterpillarForest(t *testing.T) {
	// Many branch vertices force multi-layer peeling.
	g := gen.Caterpillar(120, 3)
	cc, err := ColorChordal(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	used, err := verify.Coloring(g, cc.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used > 3 {
		t.Fatalf("caterpillar colored with %d colors", used)
	}
	if cc.Layers < 2 {
		t.Fatalf("expected ≥ 2 layers, got %d", cc.Layers)
	}
}

func TestColorChordalRelabelInvariantQuality(t *testing.T) {
	base := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, 17)
	omega, _ := chordal.CliqueNumber(base)
	for seed := int64(0); seed < 4; seed++ {
		g, _ := gen.RelabelRandom(base, seed)
		cc, err := ColorChordal(g, 0.5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		used, err := verify.Coloring(g, cc.Colors)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if used > cc.Palette || cc.Omega != omega {
			t.Fatalf("seed %d: used=%d palette=%d ω=%d want ω=%d", seed, used, cc.Palette, cc.Omega, omega)
		}
	}
}

func TestPropertyColorChordal(t *testing.T) {
	f := func(seedRaw uint16, epsPick uint8) bool {
		seed := int64(seedRaw)
		eps := []float64{1, 0.6, 0.3}[int(epsPick)%3]
		g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		cc, err := ColorChordal(g, eps)
		if err != nil {
			return false
		}
		used, err := verify.Coloring(g, cc.Colors)
		if err != nil {
			return false
		}
		return used <= cc.Palette
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMISChordal(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.35}, seed)
		res, err := MISChordal(g, 0.4)
		if err != nil {
			return false
		}
		if verify.IndependentSet(g, res.Set) != nil {
			return false
		}
		alpha, err := chordal.IndependenceNumber(g)
		if err != nil {
			return false
		}
		return float64(alpha) <= 1.4*float64(len(res.Set))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMISIntervalEdgeCases(t *testing.T) {
	// Empty.
	res, err := MISInterval(graph.New(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 0 {
		t.Fatal("empty graph must give empty set")
	}
	// Single clique: MIS = 1.
	res, err = MISInterval(gen.Complete(5), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("clique MIS = %d, want 1", len(res.Set))
	}
	// Edgeless: everyone.
	e := graph.New()
	for i := 0; i < 6; i++ {
		e.AddNode(graph.ID(i))
	}
	res, err = MISInterval(e, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 6 {
		t.Fatalf("edgeless MIS = %d, want 6", len(res.Set))
	}
	// Invalid epsilon.
	if _, err := MISInterval(gen.Path(3), 0); err == nil {
		t.Fatal("expected error for eps=0")
	}
}

// TestMISIntervalRejectsNonIntervalInput pins MISInterval's behavior
// outside its contract. The spider with three legs of length 3 is a
// tree, so chordal, but not interval; removing dominated nodes (the
// legs' middle nodes) leaves a claw, which has no umbrella ordering.
// Every proper component needs one for the diameter test, so the call
// fails although the component is far too small for the large-component
// branch.
func TestMISIntervalRejectsNonIntervalInput(t *testing.T) {
	g := graph.New()
	for leg := 0; leg < 3; leg++ {
		prev := graph.ID(0)
		for j := 1; j <= 3; j++ {
			v := graph.ID(3*leg + j)
			g.AddEdge(prev, v)
			prev = v
		}
	}
	_, err := MISInterval(g, 0.5)
	if err == nil || !strings.Contains(err.Error(), "not proper interval after reduction") {
		t.Fatalf("MISInterval on a non-interval tree: err = %v, want the not-proper-interval error", err)
	}
}

func TestMISChordalOnStarsAndPaths(t *testing.T) {
	star := gen.Star(50)
	res, err := MISChordal(star, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 49 {
		t.Fatalf("star MIS = %d, want 49", len(res.Set))
	}
	path := gen.Path(301)
	res, err = MISChordal(path, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IndependentSet(path, res.Set); err != nil {
		t.Fatal(err)
	}
	if float64(151) > 1.3*float64(len(res.Set)) {
		t.Fatalf("path MIS = %d, α = 151", len(res.Set))
	}
}

func TestAbsorbingMISAbsorptionEquation(t *testing.T) {
	// The defining property from Section 7.1: for components H of peeled
	// paths with small α, the algorithm's IH satisfies
	// |IH| = α(Γ_{G_i}[IH] \ Γ_G[I_prev]). We exercise it through
	// MISChordal runs by checking the weaker, directly testable variant
	// on standalone anchored components.
	for seed := int64(0); seed < 10; seed++ {
		host := gen.RandomInterval(25, 8, 2.5, seed)
		// Attach an anchor clique to the right end.
		nodes := host.Nodes()
		if len(nodes) == 0 {
			continue
		}
		anchorID := graph.ID(1000)
		host2 := host.Clone()
		host2.AddEdge(nodes[len(nodes)-1], anchorID)
		anchor := graph.NewSet(anchorID)
		ih := AbsorbingMIS(host, host2, anchor)
		if err := verify.IndependentSet(host, ih); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		alpha, err := chordal.IndependenceNumber(host)
		if err != nil {
			t.Fatal(err)
		}
		if len(ih) != alpha {
			t.Fatalf("seed %d: |IH| = %d, α = %d", seed, len(ih), alpha)
		}
		// Absorption within the host: α of the closed neighborhood of IH
		// inside the host equals |IH|.
		var closed graph.Set
		for _, v := range ih {
			closed = append(closed, v)
			closed = append(closed, host.Neighbors(v)...)
		}
		closed = graph.NewSet(closed...)
		a, err := chordal.IndependenceNumber(host.InducedSubgraph(closed))
		if err != nil {
			t.Fatal(err)
		}
		if a != len(ih) {
			t.Fatalf("seed %d: absorption violated: α(Γ[IH]) = %d, |IH| = %d", seed, a, len(ih))
		}
	}
}

func TestColIntGraphMatchesLayerPipeline(t *testing.T) {
	// ColIntGraph on a peeled layer's clique path must color G[W].
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.35}, 23)
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range peeled.Layers {
		for _, rec := range layer.Paths {
			sub := g.InducedSubgraph(peeled.Snapshot.IDSet(rec.Nodes))
			path := peel.LayerCliquePath(peeled.Snapshot, rec)
			if err := interval.ValidCliquePath(sub, path); err != nil {
				t.Fatalf("layer %d: %v", layer.Index, err)
			}
			ic, err := ColIntGraph(sub, path, 3)
			if err != nil {
				t.Fatalf("layer %d: %v", layer.Index, err)
			}
			if _, err := verify.Coloring(sub, ic.Colors); err != nil {
				t.Fatalf("layer %d: %v", layer.Index, err)
			}
		}
	}
}

func TestDistributedPruneOnPath(t *testing.T) {
	// A path peels in one iteration (one pendant path).
	g := gen.Path(40)
	out, err := DistributedPrune(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 1 {
		t.Fatalf("path peeled in %d iterations, want 1", out.Iterations)
	}
	for v, l := range out.Layer {
		if l != 1 {
			t.Fatalf("node %d in layer %d", v, l)
		}
	}
	if out.Rounds != 30 {
		t.Fatalf("rounds = %d, want 10k = 30", out.Rounds)
	}
}

func TestDistributedPruneParents(t *testing.T) {
	// Parents must be in strictly higher layers (Corollary 2).
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 31)
	out, err := DistributedPrune(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := out.Snapshot.IDs()
	for i, p := range out.Parent {
		if p < 0 {
			continue
		}
		if out.Layer[p] <= out.Layer[i] {
			t.Fatalf("parent %d (layer %d) of %d (layer %d) not in higher layer",
				ids[p], out.Layer[p], ids[i], out.Layer[i])
		}
		// The parent is within distance k+3.
		if d := g.Distance(ids[i], ids[p]); d > 6 {
			t.Fatalf("parent %d at distance %d > k+3 from %d", ids[p], d, ids[i])
		}
	}
}

func TestEffectiveK(t *testing.T) {
	cases := []struct {
		eps  float64
		want int
	}{
		{2, 3}, {1, 3}, {0.5, 4}, {0.25, 8}, {0.1, 20},
	}
	for _, c := range cases {
		if got := EffectiveK(c.eps); got != c.want {
			t.Errorf("EffectiveK(%v) = %d, want %d", c.eps, got, c.want)
		}
	}
}

func TestMISChordalParams(t *testing.T) {
	d, iters := MISChordalParams(0.5)
	if d != 128 {
		t.Fatalf("d = %d, want 128", d)
	}
	if iters < 8 {
		t.Fatalf("iterations = %d, too small", iters)
	}
}

func TestMISChordalDistributedMatches(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 19)
	res, err := MISChordalDistributed(g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IndependentSet(g, res.Set); err != nil {
		t.Fatal(err)
	}
	alpha, err := chordal.IndependenceNumber(g)
	if err != nil {
		t.Fatal(err)
	}
	if float64(alpha) > 1.8*float64(len(res.Set))+1e-9 {
		t.Fatalf("|I| = %d, α = %d", len(res.Set), alpha)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds reported")
	}
	// The distributed and centralized pipelines agree on the result set.
	central, err := MISChordal(g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Set.Equal(central.Set) {
		t.Fatalf("distributed set %v != centralized %v", res.Set, central.Set)
	}
}

func TestMISChordalDistributedOnSpider(t *testing.T) {
	g := spiderK4(6)
	res, err := MISChordalDistributed(g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 10 {
		t.Fatalf("spider MIS = %d, want α = 10", len(res.Set))
	}
}

// TestDeterminism: the canonical tie-breaking order exists so that all
// nodes (and all runs) agree on one clique forest; end to end, both
// algorithms must be bit-for-bit deterministic, including under the
// concurrent engine.
func TestDeterminism(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, 77)
	c1, err := ColorChordal(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ColorChordal(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		if c1.Colors[v] != c2.Colors[v] {
			t.Fatalf("node %d colored %d then %d", v, c1.Colors[v], c2.Colors[v])
		}
	}
	m1, err := MISChordal(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MISChordal(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Set.Equal(m2.Set) {
		t.Fatal("MIS not deterministic")
	}
	d1, err := ColorChordalDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ColorChordalDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		if d1.Colors[v] != d2.Colors[v] {
			t.Fatalf("distributed: node %d colored %d then %d", v, d1.Colors[v], d2.Colors[v])
		}
	}
	if d1.Rounds != d2.Rounds {
		t.Fatalf("distributed rounds differ: %d vs %d", d1.Rounds, d2.Rounds)
	}
}

// TestEpsilonBoundKeepsRadiiInInt32 checks checkEpsilon's margin: at
// the smallest ε each parameter family accepts, every radius, threshold
// and horizon the pipelines derive from it fits the kernels' int32
// distances, and a slightly smaller ε is rejected.
func TestEpsilonBoundKeepsRadiiInInt32(t *testing.T) {
	for _, c := range []float64{2, 2.5, 64} {
		smallest := c / maxParam * (1 + 1e-9)
		unit := c == 64
		if err := checkEpsilon(smallest, c, unit); err != nil {
			t.Fatalf("c=%v: smallest ε %v rejected: %v", c, smallest, err)
		}
		if err := checkEpsilon(c/maxParam*(1-1e-9), c, unit); err == nil {
			t.Fatalf("c=%v: ε below %v accepted", c, smallest)
		}
		var derived []int
		switch c {
		case 2: // Algorithms 1–2 and ColIntGraph
			k := EffectiveK(smallest)
			derived = []int{10 * k, 3 * k, 2*k + 8, k + 5}
		case 2.5: // Algorithm 5
			k := MISIntervalK(smallest)
			derived = []int{10*k + 1, k + 1}
		case 64: // Algorithm 6, with Algorithm 5 at ε/8 inside
			d, _ := MISChordalParams(smallest)
			derived = []int{3*(2*d+3) + 2, 2*d + 16, 10*MISIntervalK(smallest/8) + 1}
		}
		for _, v := range derived {
			if v > math.MaxInt32 {
				t.Fatalf("c=%v: ε = %v derives %d, beyond int32", c, smallest, v)
			}
		}
	}
}
