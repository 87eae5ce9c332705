package view_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/view"
)

// ballEdges extracts a Ball's edge set as ID pairs (a < b) for
// comparison against a *graph.Graph.
func ballEdges(b *view.Ball, ids []graph.ID) map[[2]graph.ID]bool {
	out := make(map[[2]graph.ID]bool)
	for r := int32(0); r < int32(b.NumRows()); r++ {
		u := ids[b.NodeAt(r)]
		for _, nb := range b.Row(r) {
			v := ids[b.NodeAt(nb)]
			if u < v {
				out[[2]graph.ID{u, v}] = true
			}
		}
	}
	return out
}

func sameGraph(t *testing.T, b *view.Ball, ids []graph.ID, want *graph.Graph) {
	t.Helper()
	if b.NumRows() != want.NumNodes() {
		t.Fatalf("ball has %d rows, want %d nodes", b.NumRows(), want.NumNodes())
	}
	for r := int32(0); r < int32(b.NumRows()); r++ {
		if !want.HasNode(ids[b.NodeAt(r)]) {
			t.Fatalf("ball row %d holds %d, not a member", r, ids[b.NodeAt(r)])
		}
	}
	edges := ballEdges(b, ids)
	if len(edges) != want.NumEdges() {
		t.Fatalf("ball has %d edges, want %d", len(edges), want.NumEdges())
	}
	for _, e := range want.Edges() {
		if !edges[e] {
			t.Fatalf("ball is missing edge %v", e)
		}
	}
}

// TestBuildFromIndexedMatchesInducedSubgraph checks that an Indexed
// build with a keep filter reproduces the induced subgraph exactly, and
// that rows come out in snapshot (ascending-ID) order.
func TestBuildFromIndexedMatchesInducedSubgraph(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, 3)
	ix := graph.NewIndexed(g)
	keep := make([]bool, ix.NumNodes())
	var kept []graph.ID
	for i, v := range ix.IDs() {
		if v%3 != 0 {
			keep[i] = true
			kept = append(kept, v)
		}
	}
	var b view.Ball
	b.BuildFromIndexed(ix, keep)
	sameGraph(t, &b, ix.IDs(), g.InducedSubgraph(kept))
	nodes := b.Nodes()
	for r := 1; r < len(nodes); r++ {
		if nodes[r-1] >= nodes[r] {
			t.Fatalf("rows not in snapshot order at %d: %d >= %d", r, nodes[r-1], nodes[r])
		}
	}
	for r := int32(0); r < int32(b.NumRows()); r++ {
		if b.RowOf(b.NodeAt(r)) != r {
			t.Fatalf("RowOf(NodeAt(%d)) = %d", r, b.RowOf(b.NodeAt(r)))
		}
	}
	for i := range keep {
		if !keep[i] && b.RowOf(int32(i)) != -1 {
			t.Fatalf("dropped index %d still resolves to row %d", i, b.RowOf(int32(i)))
		}
	}
}

// TestBuildFromSourceMatchesFilteredBallGraph checks the Source build
// against the reference map implementation, Knowledge.FilteredBallGraph,
// for every center of a flooded graph — including centers whose balls
// the radius clips.
func TestBuildFromSourceMatchesFilteredBallGraph(t *testing.T) {
	g := gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 7)
	ix := graph.NewIndexed(g)
	radius := 3 // small enough that many balls are clipped
	know, _, err := dist.Flood(ix, radius, dist.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	keepID := func(v graph.ID) bool { return v%5 != 1 }
	keep := make([]bool, ix.NumNodes())
	for i, v := range ix.IDs() {
		keep[i] = keepID(v)
	}
	var b view.Ball // one ball reused across all centers, as in the kernel
	for _, k := range know {
		b.BuildFromSource(k, ix.NumNodes(), radius, keep)
		sameGraph(t, &b, ix.IDs(), k.FilteredBallGraph(radius, keepID))
	}
}

// TestScratchBFSMatchesGraphBFS checks the CSR BFS against
// graph.BFSDistances, including unreachable rows staying -1.
func TestScratchBFSMatchesGraphBFS(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 13)
	// Add a disconnected component so unreachability is exercised.
	g.AddEdge(1000, 1001)
	ix := graph.NewIndexed(g)
	var sc view.Scratch
	sc.Priv.BuildFromIndexed(ix, nil)
	ids := ix.IDs()
	for _, src := range []graph.ID{ids[0], 1000} {
		si, _ := ix.IndexOf(src)
		sc.CenterBFS(&sc.Priv, sc.Priv.RowOf(int32(si)))
		want := g.BFSDistances(src)
		for r := int32(0); r < int32(sc.Priv.NumRows()); r++ {
			v := ids[sc.Priv.NodeAt(r)]
			d, ok := want[v]
			switch {
			case ok && int(sc.DistC[r]) != d:
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, v, sc.DistC[r], d)
			case !ok && sc.DistC[r] != -1:
				t.Fatalf("src %d: unreachable %d has dist %d", src, v, sc.DistC[r])
			}
		}
	}
}

// TestBallReuseAcrossBuilds checks that the epoch-stamped reset keeps
// rebuilds independent: membership from a previous build must not leak.
func TestBallReuseAcrossBuilds(t *testing.T) {
	g1 := gen.Path(20)
	g2 := gen.Tree(35, 3)
	ix1, ix2 := graph.NewIndexed(g1), graph.NewIndexed(g2)
	var b view.Ball
	for round := 0; round < 3; round++ {
		b.BuildFromIndexed(ix1, nil)
		sameGraph(t, &b, ix1.IDs(), g1)
		b.BuildFromIndexed(ix2, nil)
		sameGraph(t, &b, ix2.IDs(), g2)
		// Filtered rebuild over the same snapshot: dropped nodes must
		// not resolve even though the previous epoch had them.
		keep := make([]bool, ix2.NumNodes())
		for i := range keep {
			keep[i] = i%2 == 0
		}
		b.BuildFromIndexed(ix2, keep)
		for i := range keep {
			if !keep[i] && b.RowOf(int32(i)) != -1 {
				t.Fatalf("round %d: dropped index %d leaked from previous epoch", round, i)
			}
		}
	}
}
