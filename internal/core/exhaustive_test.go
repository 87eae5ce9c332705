package core

import (
	"fmt"
	"testing"

	"repro/internal/chordal"
	"repro/internal/graph"
	"repro/internal/verify"
)

// TestPipelinesExhaustive runs every post-peel kernel against its
// map-backed oracle, and both distributed pipelines end to end, on every
// labeled chordal graph with at most five nodes: every ID order, tie
// and degenerate shape at that size. ColorChordalDistributed checks
// Lemma 12 against the peel inside; its coloring must be legal, within
// the palette, and report ω = χ. MISChordalDistributed's set must be
// independent with |I|·(1+ε) ≥ α.
func TestPipelinesExhaustive(t *testing.T) {
	for n := 1; n <= 5; n++ {
		chordal.AllLabeled(n, func(g *graph.Graph) {
			where := fmt.Sprintf("n=%d edges %v", n, g.Edges())
			for _, eps := range []float64{0.5, 2} {
				checkCorrection(t, g, eps, 0)
				checkCorrection(t, g, eps, 3)
				checkStripPaths(t, g, eps, int64(n))
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
			}
		})
	}
}
