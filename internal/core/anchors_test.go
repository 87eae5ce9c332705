package core

import (
	"slices"
	"testing"

	"repro/internal/colorreduce"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
)

// checkAnchors compares an anchor selection with pinned values.
func checkAnchors(t *testing.T, where string, got *colorreduce.AnchorResult, anchors []int, rounds, phases int) {
	t.Helper()
	if !slices.Equal(got.Anchors, anchors) || got.Rounds != rounds || got.Phases != phases {
		t.Fatalf("%s: anchors %v, %d rounds, %d phases; want %v, %d rounds, %d phases",
			where, got.Anchors, got.Rounds, got.Phases, anchors, rounds, phases)
	}
}

// TestAnchorChainsPinned pins the exact anchor positions, rounds and
// phases of one chain of each core shape, as recorded when the anchor
// routine still kept its chain as a map-backed graph: the selection is
// part of the E7, E9, E10 and E13 rows, so a rewrite of the routine must
// reproduce it choice for choice.
func TestAnchorChainsPinned(t *testing.T) {
	// ColIntGraph's leader chain on E7's n = 256 graph (k = 4).
	ivs := gen.RandomIntervals(256, 256/8.0, 4, 256)
	ix := graph.NewIndexed(gen.FromIntervals(ivs))
	var s correctScratch
	s.layPath(ix, allIndices(ix.NumNodes()), indexPath(ix, interval.CliquePathFromModel(ivs)))
	cuts, err := s.selectCuts(ix, 2*4+8)
	if err != nil {
		t.Fatal(err)
	}
	checkAnchors(t, "E7 leader chain", cuts, []int{119}, 93, 12)

	// Algorithm 5's umbrella chain in the first component of E10's
	// n = 2048 graph (ε = 0.5) that takes the large-component branch.
	k := MISIntervalK(0.5)
	proper := interval.RemoveDominated(gen.FromIntervals(gen.UnitIntervals(2048, 2048/6.0, 2048)))
	for ci, comp := range proper.Components() {
		sub := proper.InducedSubgraph(comp)
		order, err := umbrellaOrder(sub)
		if err != nil {
			t.Fatal(err)
		}
		diam := 0
		for _, d := range sub.BFSDistances(order[0]) {
			diam = max(diam, d)
		}
		if diam <= 10*k {
			continue
		}
		if ci != 3 || len(order) != 174 {
			t.Fatalf("first large component is #%d with %d nodes, want #3 with 174", ci, len(order))
		}
		got, err := umbrellaAnchors(sub, order, k)
		if err != nil {
			t.Fatal(err)
		}
		checkAnchors(t, "E10 umbrella chain", got, []int{11, 40, 60, 93, 126, 159}, 204, 9)
		return
	}
	t.Fatal("no component takes the large-component branch")
}
