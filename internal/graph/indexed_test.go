package graph

import (
	"slices"
	"testing"
)

// MaxDegree and HasEdge read a snapshot the way the tests check it;
// production code walks NeighborIndices rows instead.

// MaxDegree returns the maximum degree over all nodes (0 when empty).
func (ix *Indexed) MaxDegree() int {
	max := 0
	for i := range ix.ids {
		if d := ix.Degree(i); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether nodes at indices i and j are adjacent, by
// binary search over the shorter of the two rows.
func (ix *Indexed) HasEdge(i, j int) bool {
	if ix.Degree(i) > ix.Degree(j) {
		i, j = j, i
	}
	row := ix.NeighborIndices(i)
	_, found := slices.BinarySearch(row, int32(j))
	return found
}

func buildTestGraph() *Graph {
	g := New()
	// Deliberately non-contiguous, unordered IDs.
	for _, e := range [][2]ID{{10, 3}, {3, 7}, {7, 10}, {7, 42}, {1, 42}} {
		g.AddEdge(e[0], e[1])
	}
	g.AddNode(99) // isolated
	return g
}

func TestIndexedSnapshot(t *testing.T) {
	g := buildTestGraph()
	ix := NewIndexed(g)

	if ix.NumNodes() != g.NumNodes() || ix.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			ix.NumNodes(), ix.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	ids := ix.IDs()
	if !slices.IsSorted(ids) {
		t.Fatalf("IDs not sorted: %v", ids)
	}
	for i, v := range ids {
		if ix.IDOf(i) != v {
			t.Fatalf("IDOf(%d) = %d, want %d", i, ix.IDOf(i), v)
		}
		if j, ok := ix.IndexOf(v); !ok || j != i {
			t.Fatalf("IndexOf(%d) = (%d,%v), want (%d,true)", v, j, ok, i)
		}
		wantNbrs := g.Neighbors(v)
		if !slices.Equal(ix.NeighborIDs(i), wantNbrs) {
			t.Fatalf("NeighborIDs(%d) = %v, want %v", v, ix.NeighborIDs(i), wantNbrs)
		}
		if ix.Degree(i) != len(wantNbrs) {
			t.Fatalf("Degree(%d) = %d, want %d", v, ix.Degree(i), len(wantNbrs))
		}
		// Index and ID neighbor views must be aligned and sorted.
		nbrIdx := ix.NeighborIndices(i)
		if !slices.IsSorted(nbrIdx) {
			t.Fatalf("NeighborIndices(%d) not sorted: %v", v, nbrIdx)
		}
		for k, j := range nbrIdx {
			if ix.IDOf(int(j)) != ix.NeighborIDs(i)[k] {
				t.Fatalf("node %d: colIdx/colID misaligned at %d", v, k)
			}
		}
	}
	if _, ok := ix.IndexOf(1234); ok {
		t.Fatal("IndexOf of a non-node reported ok")
	}
	for i := range ids {
		for j := range ids {
			if ix.HasEdge(i, j) != g.HasEdge(ids[i], ids[j]) {
				t.Fatalf("HasEdge(%d,%d) disagrees with graph", ids[i], ids[j])
			}
		}
	}
}

func TestIndexedImmuneToMutation(t *testing.T) {
	g := buildTestGraph()
	ix := NewIndexed(g)
	before := slices.Clone(ix.NeighborIDs(mustIndex(t, ix, 7)))
	g.AddEdge(7, 99)
	g.RemoveEdge(7, 3)
	if !slices.Equal(ix.NeighborIDs(mustIndex(t, ix, 7)), before) {
		t.Fatal("snapshot changed after source graph mutation")
	}
}

func mustIndex(t *testing.T, ix *Indexed, v ID) int {
	t.Helper()
	i, ok := ix.IndexOf(v)
	if !ok {
		t.Fatalf("node %d missing from snapshot", v)
	}
	return i
}

// TestNeighborsCacheInvalidation drives the mutation paths that must
// invalidate the cached sorted adjacency of Graph.Neighbors.
func TestNeighborsCacheInvalidation(t *testing.T) {
	g := buildTestGraph()
	if got := g.Neighbors(7); !slices.Equal(got, Set{3, 10, 42}) {
		t.Fatalf("Neighbors(7) = %v", got)
	}
	// AddEdge invalidates both endpoints.
	g.AddEdge(7, 99)
	if got := g.Neighbors(7); !slices.Equal(got, Set{3, 10, 42, 99}) {
		t.Fatalf("after AddEdge: Neighbors(7) = %v", got)
	}
	if got := g.Neighbors(99); !slices.Equal(got, Set{7}) {
		t.Fatalf("after AddEdge: Neighbors(99) = %v", got)
	}
	// Re-adding an existing edge is a no-op and must not corrupt anything.
	g.AddEdge(7, 99)
	if got := g.Neighbors(7); !slices.Equal(got, Set{3, 10, 42, 99}) {
		t.Fatalf("after duplicate AddEdge: Neighbors(7) = %v", got)
	}
	// RemoveEdge invalidates both endpoints.
	g.RemoveEdge(7, 3)
	if got := g.Neighbors(7); !slices.Equal(got, Set{10, 42, 99}) {
		t.Fatalf("after RemoveEdge: Neighbors(7) = %v", got)
	}
	if got := g.Neighbors(3); !slices.Equal(got, Set{10}) {
		t.Fatalf("after RemoveEdge: Neighbors(3) = %v", got)
	}
	// RemoveNode invalidates the node and all former neighbors.
	g.Neighbors(10) // warm the cache
	g.RemoveNode(10)
	if got := g.Neighbors(7); !slices.Equal(got, Set{42, 99}) {
		t.Fatalf("after RemoveNode: Neighbors(7) = %v", got)
	}
	if got := g.Neighbors(3); len(got) != 0 {
		t.Fatalf("after RemoveNode: Neighbors(3) = %v", got)
	}
	// Handed-out slices must stay valid after invalidation.
	before := g.Neighbors(42)
	snapshot := slices.Clone(before)
	g.AddEdge(42, 3)
	if !slices.Equal(before, snapshot) {
		t.Fatal("previously returned Neighbors slice was mutated by a later edit")
	}
	if got := g.Neighbors(42); !slices.Equal(got, Set{1, 3, 7}) {
		t.Fatalf("after re-add: Neighbors(42) = %v", got)
	}
	// ClosedNeighbors merges the node in without disturbing the cache.
	if got := g.ClosedNeighbors(42); !slices.Equal(got, Set{1, 3, 7, 42}) {
		t.Fatalf("ClosedNeighbors(42) = %v", got)
	}
	if got := g.Neighbors(42); !slices.Equal(got, Set{1, 3, 7}) {
		t.Fatalf("Neighbors(42) corrupted by ClosedNeighbors: %v", got)
	}
}

// TestNewIndexedFromCSRRejectsRowPtrOutOfBounds: a rowPtr that climbs
// past len(colIdx) and falls back to it must be rejected before any row
// is sliced, not panic — a shard host rebuilds every session frame
// through this call.
func TestNewIndexedFromCSRRejectsRowPtrOutOfBounds(t *testing.T) {
	if _, err := NewIndexedFromCSR([]ID{1, 2}, []int32{0, 100, 5}, make([]int32, 5)); err == nil {
		t.Fatal("rowPtr {0, 100, 5} over 5 columns accepted")
	}
}
