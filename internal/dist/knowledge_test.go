package dist

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Len returns the number of elements; the knowledge tests check it
// against Knowledge.Size.
func (s *IdxSet) Len() int { return s.n }

// bfsBall is the reference ball: the snapshot indices of the nodes
// within radius hops of v in g, ascending, from graph.BFSDistances.
func bfsBall(g *graph.Graph, ix *graph.Indexed, v graph.ID, radius int) []int32 {
	var ball []int32
	for u, d := range g.BFSDistances(v) {
		if d <= radius {
			i, _ := ix.IndexOf(u)
			ball = append(ball, int32(i))
		}
	}
	slices.Sort(ball)
	return ball
}

// checkMembers fails t unless k is a well-formed member set of center's
// knowledge on ix: AppendMembers strictly ascending within the snapshot
// and holding the center, Size its length, and KnownIdx agreeing with it
// on every index.
func checkMembers(t testing.TB, ix *graph.Indexed, k *Knowledge, center int) []int32 {
	t.Helper()
	if k.Center != ix.IDOf(center) {
		t.Fatalf("knowledge Center %d, want %d", k.Center, ix.IDOf(center))
	}
	members := k.AppendMembers(nil)
	if len(members) != k.Size() {
		t.Fatalf("knowledge of %d: %d members, Size %d", center, len(members), k.Size())
	}
	for i, m := range members {
		if m < 0 || int(m) >= ix.NumNodes() || i > 0 && m <= members[i-1] {
			t.Fatalf("knowledge of %d: member %d (index %d) out of range or out of order", center, i, m)
		}
	}
	for i := range int32(ix.NumNodes()) {
		_, in := slices.BinarySearch(members, i)
		if k.KnownIdx(i) != in {
			t.Fatalf("knowledge of %d: KnownIdx(%d) = %v, members say %v", center, i, k.KnownIdx(i), in)
		}
	}
	if _, in := slices.BinarySearch(members, int32(center)); !in {
		t.Fatalf("knowledge of %d does not hold its center", center)
	}
	return members
}

// checkBalls fails t unless every node's knowledge is well formed and
// holds exactly its radius ball in g.
func checkBalls(t *testing.T, at string, g *graph.Graph, ix *graph.Indexed, ks []*Knowledge, radius int) {
	t.Helper()
	for i, k := range ks {
		got := checkMembers(t, ix, k, i)
		if want := bfsBall(g, ix, ix.IDOf(i), radius); !slices.Equal(got, want) {
			t.Fatalf("%s node %d: members %v, radius-%d ball %v", at, ix.IDOf(i), got, radius, want)
		}
	}
}

// floodIndexed floods ix and keys the knowledge by node ID.
func floodIndexed(t *testing.T, ix *graph.Indexed, radius int) map[graph.ID]*Knowledge {
	t.Helper()
	ks, _, err := Flood(ix, radius, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return byID(ix, ks)
}

// TestKnownIdxBitmapAndScanAgree checks KnownIdx's bit-test path, and
// AppendMembers' scan of the bitmap, against the BFS ball, for clipped
// balls.
func TestKnownIdxBitmapAndScanAgree(t *testing.T) {
	g := gen.Tree(90, 7)
	ix := graph.NewIndexed(g)
	ks, _, err := Flood(ix, 3, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		if k.seen == nil {
			t.Fatalf("knowledge of %d has no dedup bitmap at n=%d", ix.IDOf(i), ix.NumNodes())
		}
	}
	checkBalls(t, "bitmap", g, ix, ks, 3)
}

// TestRetransKnowledgeIndexReady checks that retransmission-protocol
// knowledge resolves in index space while carrying no bitmap: its
// KnownIdx goes through the sparse index set, agreeing with the BFS
// ball.
func TestRetransKnowledgeIndexReady(t *testing.T) {
	g := gen.Path(40)
	ix := graph.NewIndexed(g)
	ks, _, err := FloodRetrans(ix, 4, 50, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		if k.seen != nil {
			t.Fatalf("retrans knowledge of %d unexpectedly carries a dedup bitmap", ix.IDOf(i))
		}
		if k.known.Len() != k.Size() {
			t.Fatalf("retrans knowledge of %d: index set has %d entries, want %d", ix.IDOf(i), k.known.Len(), k.Size())
		}
	}
	checkBalls(t, "retrans", g, ix, ks, 4)
}

// TestBigNSparseSetRegime exercises the flood above seenBitmapMaxN,
// where dedup and membership run through the sparse index set: no
// bitmap, and KnownIdx agreeing with the BFS ball on both answers.
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
		ball := bfsBall(g, ix, v, 3)
		if got := k.AppendMembers(nil); !slices.Equal(got, ball) {
			t.Fatalf("center %d: members %v, ball %v", v, got, ball)
		}
		for _, u := range []graph.ID{0, v, 1_000_000, 1_000_002, graph.ID(seenBitmapMaxN - 1)} {
			i, ok := ix.IndexOf(u)
			if !ok {
				t.Fatalf("probe node %d missing from snapshot", u)
			}
			set := k.KnownIdx(int32(i))
			if _, in := slices.BinarySearch(ball, int32(i)); set != in {
				t.Fatalf("center %d idx %d: sparse KnownIdx %v, ball %v", v, i, set, in)
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
