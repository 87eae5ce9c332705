package dist

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// coversByMap is the position-map reference for CoversComponent: the
// known set is closed under adjacency, checked by ID through Known.
func coversByMap(k *Knowledge) bool {
	for _, idx := range k.recs {
		for _, u := range k.snap.NeighborIDs(int(idx)) {
			if !k.Known(u) {
				return false
			}
		}
	}
	return true
}

// knownByScan is the record-scan reference for KnownIdx.
func knownByScan(k *Knowledge, i int32) bool { return slices.Contains(k.recs, i) }

// floodIndexed floods ix and keys the knowledge by node ID.
func floodIndexed(t *testing.T, ix *graph.Indexed, radius int) map[graph.ID]*Knowledge {
	t.Helper()
	ks, _, err := Flood(ix, radius, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return byID(ix, ks)
}

// TestCoversComponentBitmapMatchesMapPath checks that the dense-bitmap
// path of CoversComponent agrees with the position-map reference on
// both answers: balls that cover their component (radius beyond the
// diameter) and balls the radius clips.
func TestCoversComponentBitmapMatchesMapPath(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 17)
	// A second component so coverage is per-component, not per-graph.
	g.AddEdge(5000, 5001)
	g.AddEdge(5001, 5002)
	for _, radius := range []int{0, 1, 2, 3, 50} {
		ix := graph.NewIndexed(g)
		know := floodIndexed(t, ix, radius)
		covered, clipped := 0, 0
		for _, v := range ix.IDs() {
			k := know[v]
			if k.seen == nil {
				t.Fatalf("radius %d: knowledge of %d has no dedup bitmap at n=%d", radius, v, ix.NumNodes())
			}
			got := k.CoversComponent()
			if k.pos != nil {
				t.Fatalf("radius %d: bitmap CoversComponent of %d built the position map", radius, v)
			}
			if want := coversByMap(k); got != want {
				t.Fatalf("radius %d: CoversComponent of %d: bitmap %v, map path %v", radius, v, got, want)
			}
			if got {
				covered++
			} else {
				clipped++
			}
		}
		// Both answers must actually occur across the radius sweep ends.
		if radius == 0 && covered != 0 {
			t.Fatalf("radius 0: %d balls claim component coverage", covered)
		}
		if radius == 50 && clipped != 0 {
			t.Fatalf("radius 50: %d balls still clipped", clipped)
		}
	}
}

// TestKnownIdxBitmapAndScanAgree checks KnownIdx's bit-test path against
// a record scan and against Known on IDs, for clipped balls.
func TestKnownIdxBitmapAndScanAgree(t *testing.T) {
	g := gen.Tree(90, 7)
	ix := graph.NewIndexed(g)
	know := floodIndexed(t, ix, 3)
	ids := ix.IDs()
	for _, v := range ids {
		k := know[v]
		for i := range ids {
			bit := k.KnownIdx(int32(i))
			if slow := knownByScan(k, int32(i)); bit != slow {
				t.Fatalf("center %d idx %d: bitmap KnownIdx %v, scan %v", v, i, bit, slow)
			}
			if byID := k.Known(ids[i]); bit != byID {
				t.Fatalf("center %d idx %d: KnownIdx %v, Known(%d) %v", v, i, bit, ids[i], byID)
			}
		}
	}
}

// TestRetransKnowledgeIndexReady checks that retransmission-protocol
// knowledge resolves in index space (the decide kernel consumes it
// through view.Source) while carrying no bitmap — its CoversComponent
// goes through the sparse index set, agreeing with the position-map
// reference.
func TestRetransKnowledgeIndexReady(t *testing.T) {
	g := gen.Path(40)
	ix := graph.NewIndexed(g)
	ks, _, err := FloodRetrans(ix, 4, 50, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	know := byID(ix, ks)
	for _, v := range g.Nodes() {
		k := know[v]
		if k.seen != nil {
			t.Fatalf("retrans knowledge of %d unexpectedly carries a dedup bitmap", v)
		}
		if k.known.Len() != k.Size() {
			t.Fatalf("retrans knowledge of %d: index set has %d entries, want %d", v, k.known.Len(), k.Size())
		}
		if got, want := k.CoversComponent(), coversByMap(k); got != want {
			t.Fatalf("retrans CoversComponent of %d: %v vs %v", v, got, want)
		}
	}
}

// TestBigNSparseSetRegime exercises the flood above seenBitmapMaxN,
// where dedup and membership run through the sparse index set: no
// bitmap, no eagerly-built position map, and KnownIdx/CoversComponent
// agreeing with the ID-keyed reference paths.
func TestBigNSparseSetRegime(t *testing.T) {
	g := gen.Path(seenBitmapMaxN + 100)
	// A second, tiny component whose radius-3 balls cover it entirely,
	// so CoversComponent exercises both answers in this regime.
	g.AddEdge(1_000_000, 1_000_001)
	g.AddEdge(1_000_001, 1_000_002)
	ix := graph.NewIndexed(g)
	know := floodIndexed(t, ix, 3)
	ids := ix.IDs()
	covered, clipped := 0, 0
	for _, v := range []graph.ID{0, 77, seenBitmapMaxN / 2, 1_000_000, 1_000_001} {
		k := know[v]
		if k.seen != nil {
			t.Fatalf("knowledge of %d carries a dense bitmap at n=%d", v, ix.NumNodes())
		}
		if k.known.Len() != k.Size() {
			t.Fatalf("knowledge of %d: index set has %d entries, want %d", v, k.known.Len(), k.Size())
		}
		got := k.CoversComponent()
		if k.pos != nil {
			t.Fatalf("index-space CoversComponent of %d built the position map", v)
		}
		if want := coversByMap(k); got != want {
			t.Fatalf("CoversComponent of %d: sparse set %v, map path %v", v, got, want)
		}
		if got {
			covered++
		} else {
			clipped++
		}
		for _, u := range []graph.ID{0, v, 1_000_000, 1_000_002, graph.ID(seenBitmapMaxN - 1)} {
			i, ok := ix.IndexOf(u)
			if !ok {
				t.Fatalf("probe node %d missing from snapshot", u)
			}
			set := k.KnownIdx(int32(i))
			if slow := knownByScan(k, int32(i)); set != slow {
				t.Fatalf("center %d idx %d: sparse KnownIdx %v, scan %v", v, i, set, slow)
			}
			if byID := k.Known(ids[i]); set != byID {
				t.Fatalf("center %d idx %d: KnownIdx %v, Known(%d) %v", v, i, set, ids[i], byID)
			}
		}
	}
	if covered == 0 || clipped == 0 {
		t.Fatalf("probe set saw covered=%d clipped=%d; want both regimes", covered, clipped)
	}
}
