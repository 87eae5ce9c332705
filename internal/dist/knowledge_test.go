package dist

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// distByScan is the record-scan reference for a node's distance: v's
// hop distance from k's center, and whether k knows v at all.
func distByScan(k *Knowledge, v graph.ID) (int, bool) {
	for i, idx := range k.recs {
		if k.snap.IDOf(int(idx)) == v {
			return int(k.dist[i]), true
		}
	}
	return 0, false
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

// TestKnownIdxBitmapAndScanAgree checks KnownIdx's bit-test path against
// a record scan, for clipped balls.
func TestKnownIdxBitmapAndScanAgree(t *testing.T) {
	g := gen.Tree(90, 7)
	ix := graph.NewIndexed(g)
	know := floodIndexed(t, ix, 3)
	ids := ix.IDs()
	for _, v := range ids {
		k := know[v]
		if k.seen == nil {
			t.Fatalf("knowledge of %d has no dedup bitmap at n=%d", v, ix.NumNodes())
		}
		for i := range ids {
			bit := k.KnownIdx(int32(i))
			if slow := knownByScan(k, int32(i)); bit != slow {
				t.Fatalf("center %d idx %d: bitmap KnownIdx %v, scan %v", v, i, bit, slow)
			}
		}
	}
}

// TestRetransKnowledgeIndexReady checks that retransmission-protocol
// knowledge resolves in index space while carrying no bitmap: its
// KnownIdx goes through the sparse index set, agreeing with a record
// scan.
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
		for i := range ix.NumNodes() {
			if got, want := k.KnownIdx(int32(i)), knownByScan(k, int32(i)); got != want {
				t.Fatalf("retrans knowledge of %d idx %d: KnownIdx %v, scan %v", v, i, got, want)
			}
		}
	}
}

// TestBigNSparseSetRegime exercises the flood above seenBitmapMaxN,
// where dedup and membership run through the sparse index set: no
// bitmap, and KnownIdx agreeing with a record scan on both answers.
func TestBigNSparseSetRegime(t *testing.T) {
	g := gen.Path(seenBitmapMaxN + 100)
	// A second, tiny component whose radius-3 balls cover it entirely,
	// so the probes see known nodes off the long path as well.
	g.AddEdge(1_000_000, 1_000_001)
	g.AddEdge(1_000_001, 1_000_002)
	ix := graph.NewIndexed(g)
	know := floodIndexed(t, ix, 3)
	known, unknown := 0, 0
	for _, v := range []graph.ID{0, 77, seenBitmapMaxN / 2, 1_000_000, 1_000_001} {
		k := know[v]
		if k.seen != nil {
			t.Fatalf("knowledge of %d carries a dense bitmap at n=%d", v, ix.NumNodes())
		}
		if k.known.Len() != k.Size() {
			t.Fatalf("knowledge of %d: index set has %d entries, want %d", v, k.known.Len(), k.Size())
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
			if set {
				known++
			} else {
				unknown++
			}
		}
	}
	if known == 0 || unknown == 0 {
		t.Fatalf("probe set saw known=%d unknown=%d; want both answers", known, unknown)
	}
}
