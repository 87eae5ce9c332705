package core

import (
	"flag"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chordal"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/peel"
	"repro/internal/verify"
)

// exhaustivePruneSpecs are the prune specs of the n ≤ 5 tier. Radius 4
// clips balls on these graphs, so the trust gate and the frontier walk
// both bind; MaxIterations 2 truncates the run, and the last two specs
// switch its last iteration to the α rule.
var exhaustivePruneSpecs = []PruneSpec{
	{DiamThreshold: 1, Radius: 4},
	{DiamThreshold: 2, Radius: 6},
	{DiamThreshold: 3, Radius: 9},
	{DiamThreshold: 1, Radius: 4, MaxIterations: 2},
	{DiamThreshold: 5, Radius: 18, MaxIterations: 2, FinalAlpha: 1},
	{DiamThreshold: 2, Radius: 20, MaxIterations: 2, FinalAlpha: 2},
}

// pruneMaxN is the largest node count TestPruneExhaustive enumerates:
// five in `go test ./...`, six in `make exhaustive`.
var pruneMaxN = flag.Int("prune-n", 5, "largest node count TestPruneExhaustive enumerates")

// TestPruneExhaustive runs the distributed prune under every spec of
// exhaustivePruneSpecs on every labeled chordal graph with at most
// -prune-n nodes (default five). Its layers must be the peel's under the
// same options (Lemma 12), and every anchored diameter the decide
// kernel measures must match the whole-view BFS.
func TestPruneExhaustive(t *testing.T) {
	var mu sync.Mutex
	checked, mismatched := 0, 0
	anchoredDiameterProbe = func(sc *decideScratch, d int) {
		want := wholeBallAnchoredDiameter(sc)
		mu.Lock()
		defer mu.Unlock()
		checked++
		if d != want && mismatched < 5 {
			mismatched++
			t.Errorf("anchored diameter %d, whole-view BFS says %d", d, want)
		}
	}
	defer func() { anchoredDiameterProbe = nil }()
	for n := 1; n <= *pruneMaxN; n++ {
		chordal.AllLabeled(n, func(g *graph.Graph) {
			for _, spec := range exhaustivePruneSpecs {
				where := fmt.Sprintf("n=%d edges %v spec %+v", n, g.Edges(), spec)
				out, err := DistributedPruneSpec(g, spec)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				peeled, err := peel.Run(g, peel.Options{
					InternalDiameter: spec.DiamThreshold,
					MaxIterations:    spec.MaxIterations,
					FinalAlpha:       spec.FinalAlpha,
					NoForests:        true,
					Snapshot:         out.Snapshot,
				})
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := out.checkLemma12(peeled); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		})
	}
	if checked == 0 {
		t.Fatal("no anchored diameter was measured")
	}
	t.Logf("%d anchored diameters checked", checked)
}

// TestPipelinesExhaustive runs every post-peel kernel against its
// map-backed oracle (correct-paths, the strip path, color-paths and the
// MIS components), and both distributed pipelines end to end, on every
// labeled chordal graph with at most five nodes: every ID order, tie
// and degenerate shape at that size. ColorChordalDistributed checks
// Lemma 12 against the peel inside; its coloring must be legal, within
// the palette, and report ω = χ. MISChordalDistributed's set must be
// independent with |I|·(1+ε) ≥ α. Both pipelines must give the same
// result on two in-process shards and under dup/delay as fault-free.
func TestPipelinesExhaustive(t *testing.T) {
	dupDelay, err := dist.ParseFaults("dup=0.3,delay=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	colorPaths := 0
	for n := 1; n <= 5; n++ {
		chordal.AllLabeled(n, func(g *graph.Graph) {
			where := fmt.Sprintf("n=%d edges %v", n, g.Edges())
			variants := []struct {
				name string
				f    *dist.Faults
				part *dist.Partition
			}{
				{"2 shards", nil, dist.NewLocalPartition(graph.NewIndexed(g), 2)},
				{"dup=0.3,delay=2", dupDelay, nil},
			}
			for _, eps := range []float64{0.5, 2} {
				checkCorrection(t, g, eps, 0)
				checkCorrection(t, g, eps, 3)
				checkStripPaths(t, g, eps, int64(n))
				colorPaths += checkPeeledColorPaths(t, g, eps)
			}
			checkMISComponents(t, g, 0.5)
			checkMISComponents(t, g, 0.9)

			chi, err := verify.BruteForceChromatic(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.5, 2} {
				col, err := ColorChordalDistributed(g, eps)
				if err != nil {
					t.Fatalf("%s eps=%v: %v", where, eps, err)
				}
				used, err := verify.Coloring(g, col.Colors)
				if err != nil {
					t.Fatalf("%s eps=%v: %v", where, eps, err)
				}
				if used > col.Palette || col.Omega != chi {
					t.Fatalf("%s eps=%v: %d colors, palette %d, ω %d, χ %d", where, eps, used, col.Palette, col.Omega, chi)
				}
				for _, v := range variants {
					got, err := ColorChordalDistributedFaultyPart(g, eps, nil, nil, v.f, v.part)
					if err != nil {
						t.Fatalf("%s eps=%v %s: %v", where, eps, v.name, err)
					}
					if !reflect.DeepEqual(got, col) {
						t.Fatalf("%s eps=%v %s: coloring %+v, fault-free %+v", where, eps, v.name, got, col)
					}
				}
			}
			alpha, err := verify.BruteForceAlpha(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.5, 0.9} {
				mis, err := MISChordalDistributed(g, eps)
				if err != nil {
					t.Fatalf("%s eps=%v: %v", where, eps, err)
				}
				if err := verify.IndependentSet(g, mis.Set); err != nil {
					t.Fatalf("%s eps=%v: %v", where, eps, err)
				}
				if float64(len(mis.Set))*(1+eps) < float64(alpha) {
					t.Fatalf("%s eps=%v: |I| = %d, α = %d", where, eps, len(mis.Set), alpha)
				}
				for _, v := range variants {
					got, err := MISChordalDistributedFaultyPart(g, eps, nil, nil, v.f, v.part)
					if err != nil {
						t.Fatalf("%s eps=%v %s: %v", where, eps, v.name, err)
					}
					if !reflect.DeepEqual(got, mis) {
						t.Fatalf("%s eps=%v %s: MIS %+v, fault-free %+v", where, eps, v.name, got, mis)
					}
				}
			}
		})
	}
	if colorPaths == 0 {
		t.Fatal("no peeled path reached the color-paths check")
	}
	t.Logf("%d peeled paths colored against colIntGraphOracle", colorPaths)
}
