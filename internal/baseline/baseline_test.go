package baseline

import (
	"testing"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/verify"
)

func TestGreedyColoringLegal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.5}, seed)
		colors := GreedyColoring(g)
		used, err := verify.Coloring(g, colors)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if used > g.MaxDegree()+1 {
			t.Fatalf("seed %d: greedy used %d > Δ+1 = %d", seed, used, g.MaxDegree()+1)
		}
	}
}

func TestGreedyMISMaximal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		is := GreedyMIS(g)
		if err := verify.MaximalIndependentSet(g, is); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLubyMISMaximal(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.3}, seed)
		is, rounds, err := LubyMIS(g, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.MaximalIndependentSet(g, is); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rounds <= 0 {
			t.Fatal("no rounds reported")
		}
	}
}

func TestLubyMISOnCliqueAndEmpty(t *testing.T) {
	g := gen.Complete(8)
	is, _, err := LubyMIS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(is) != 1 {
		t.Fatalf("MIS of a clique has size %d, want 1", len(is))
	}
	// Edgeless graph: everyone joins immediately.
	e := gen.Path(1)
	e.AddNode(5)
	is2, _, err := LubyMIS(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(is2) != 2 {
		t.Fatalf("MIS of edgeless graph = %d, want 2", len(is2))
	}
}

func TestGreedyMISNotOptimalOnStars(t *testing.T) {
	// With center ID 0 the greedy takes the center and misses all leaves;
	// Gavril's exact algorithm finds the leaves. This is the gap E14
	// quantifies.
	g := gen.Star(10)
	greedy := GreedyMIS(g)
	exact, err := chordal.MaximumIndependentSet(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy) >= len(exact) {
		t.Fatalf("expected greedy (%d) < exact (%d) on the star", len(greedy), len(exact))
	}
}

func TestJohanssonColoringLegal(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, seed)
		colors, rounds, err := JohanssonColoring(g, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		used, err := verify.Coloring(g, colors)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if used > g.MaxDegree()+1 {
			t.Fatalf("seed %d: used %d > Δ+1", seed, used)
		}
		if rounds <= 0 {
			t.Fatal("no rounds")
		}
	}
}

func TestJohanssonOnClique(t *testing.T) {
	g := gen.Complete(10)
	colors, _, err := JohanssonColoring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	used, err := verify.Coloring(g, colors)
	if err != nil {
		t.Fatal(err)
	}
	if used != 10 {
		t.Fatalf("K10 colored with %d colors", used)
	}
}
