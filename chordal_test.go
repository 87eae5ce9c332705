package chordal

import (
	"math"
	"strings"
	"testing"
)

// TestEpsilonRejected checks that every public entry point taking ε
// rejects NaN, 0 and −1, and the chordal MIS ones also 1, before doing
// any work: NaN fails every comparison, so a check phrased as "ε ≤ 0"
// lets it through. A positive ε so small that the parameter it selects
// would overflow the kernels' int32 distances is rejected too.
func TestEpsilonRejected(t *testing.T) {
	g, ivs := RandomIntervalGraph(40, 12, 3, 1)
	const positive, unit = "epsilon must be positive, got ", "epsilon must be in (0,1), got "
	const tooSmall = "epsilon too small, got "
	entries := []struct {
		name string
		want string
		run  func(eps float64) error
	}{
		{"Color", positive, func(eps float64) error { _, err := Color(g, eps); return err }},
		{"ColorDistributed", positive, func(eps float64) error { _, err := ColorDistributed(g, eps); return err }},
		{"ColorAny", positive, func(eps float64) error { _, err := ColorAny(g, eps); return err }},
		{"ColorInterval", positive, func(eps float64) error { _, err := ColorInterval(ivs, eps); return err }},
		{"ColorIntervalGraph", positive, func(eps float64) error { _, err := ColorIntervalGraph(g, eps); return err }},
		{"MaxIndependentSetInterval", positive, func(eps float64) error { _, err := MaxIndependentSetInterval(g, eps); return err }},
		{"MaxIndependentSet", unit, func(eps float64) error { _, err := MaxIndependentSet(g, eps); return err }},
		{"MaxIndependentSetDistributed", unit, func(eps float64) error { _, err := MaxIndependentSetDistributed(g, eps); return err }},
	}
	for _, e := range entries {
		bad := []float64{math.NaN(), 0, -1}
		// So small that the parameter, or a radius derived from it,
		// overflows: 2/ε just below 2³¹ wraps the strip kernel's horizon
		// k+3, and 2/ε = 2·10¹⁹ overflows int itself.
		tiny := []float64{1e-300, 1e-19, 9.313225759165211e-10}
		if e.want == unit {
			bad = append(bad, 1)
			tiny = append(tiny, 1e-18)
		}
		for _, eps := range bad {
			if err := e.run(eps); err == nil || !strings.HasPrefix(err.Error(), e.want) {
				t.Errorf("%s(ε = %v): err = %v, want %q…", e.name, eps, err, e.want)
			}
		}
		for _, eps := range tiny {
			if err := e.run(eps); err == nil || !strings.HasPrefix(err.Error(), tooSmall) {
				t.Errorf("%s(ε = %v): err = %v, want %q…", e.name, eps, err, tooSmall)
			}
		}
	}
}

func TestPublicAPIColorAndMIS(t *testing.T) {
	g := RandomChordalGraph(300, 5, 1)
	if !IsChordal(g) {
		t.Fatal("generator produced non-chordal graph")
	}
	omega, err := ChromaticNumber(g)
	if err != nil {
		t.Fatal(err)
	}
	coloring, err := Color(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	used, err := VerifyColoring(g, coloring.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used > coloring.Palette {
		t.Fatalf("used %d > palette %d (χ=%d)", used, coloring.Palette, omega)
	}

	alpha, err := IndependenceNumber(g)
	if err != nil {
		t.Fatal(err)
	}
	mis, err := MaxIndependentSet(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIndependentSet(g, mis.Set); err != nil {
		t.Fatal(err)
	}
	if float64(alpha) > 1.4*float64(len(mis.Set))+1e-9 {
		t.Fatalf("|I| = %d, α = %d", len(mis.Set), alpha)
	}
}

func TestPublicAPIIntervalRoutines(t *testing.T) {
	g, ivs := RandomIntervalGraph(300, 80, 3, 2)
	ic, err := ColorInterval(ivs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyColoring(g, ic.Colors); err != nil {
		t.Fatal(err)
	}
	im, err := MaxIndependentSetInterval(g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIndependentSet(g, im.Set); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExactBaselines(t *testing.T) {
	g := RandomChordalGraph(100, 4, 3)
	colors, err := OptimalColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	used, err := VerifyColoring(g, colors)
	if err != nil {
		t.Fatal(err)
	}
	omega, err := ChromaticNumber(g)
	if err != nil {
		t.Fatal(err)
	}
	if used != omega {
		t.Fatalf("optimal coloring used %d colors, χ = %d", used, omega)
	}
	is, err := MaximumIndependentSetExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIndependentSet(g, is); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICliqueForest(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{1, 2}, {2, 3}, {1, 3}, {3, 4}})
	f, err := NewCliqueForest(g)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVertices() != 2 {
		t.Fatalf("expected 2 maximal cliques, got %d", f.NumVertices())
	}
	if _, err := NewCliqueForest(FromEdges(nil, [][2]ID{{1, 2}, {2, 3}, {3, 4}, {4, 1}})); err == nil {
		t.Fatal("C4 must be rejected")
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	g := RandomChordalGraph(60, 4, 4)
	cc, err := ColorDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Rounds <= 0 {
		t.Fatal("no round count")
	}
	if _, err := VerifyColoring(g, cc.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIIntervalRecognition(t *testing.T) {
	g, _ := RandomIntervalGraph(150, 40, 3, 5)
	if !IsIntervalGraph(g) {
		t.Fatal("random interval graph rejected")
	}
	model, err := RecognizeInterval(g)
	if err != nil {
		t.Fatal(err)
	}
	if !FromIntervals(model).Equal(g) {
		t.Fatal("recognized model does not realize the graph")
	}
	ic, err := ColorIntervalGraph(g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	used, err := VerifyColoring(g, ic.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used > ic.Palette {
		t.Fatalf("used %d > palette %d", used, ic.Palette)
	}
	// A chordal non-interval graph is rejected.
	claw := FromEdges(nil, [][2]ID{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {0, 5}, {5, 6}})
	if IsIntervalGraph(claw) {
		t.Fatal("subdivided claw accepted")
	}
}

func TestPublicAPIBeyondChordal(t *testing.T) {
	g := NewGraph()
	for _, e := range [][2]ID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} { // C4
		g.AddEdge(e[0], e[1])
	}
	if IsChordal(g) {
		t.Fatal("C4 reported chordal")
	}
	tri, fill := Chordalize(g)
	if !IsChordal(tri) || len(fill) != 1 {
		t.Fatalf("triangulating C4: chordal=%v fill=%d", IsChordal(tri), len(fill))
	}
	cc, err := ColorAny(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyColoring(g, cc.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMISDistributed(t *testing.T) {
	g := RandomChordalGraph(50, 4, 9)
	res, err := MaxIndependentSetDistributed(g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIndependentSet(g, res.Set); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds reported")
	}
}
