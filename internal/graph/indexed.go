package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Indexed is a frozen, index-based snapshot of a Graph: the n nodes are
// densely numbered 0..n-1 in increasing ID order and adjacency is stored
// in compressed sparse row (CSR) form with every neighbor list sorted
// ascending. Lookups in both directions (ID→index, index→ID) are O(1),
// and neighbor slices are shared views into the snapshot, so repeated
// reads allocate nothing.
//
// An Indexed is immutable and safe for any number of concurrent readers;
// mutating the source Graph after the snapshot is taken does not affect
// it. The simulation hot paths (dist.Run, flooding, pruning) run on
// snapshots; the mutable Graph remains the construction-time interface.
type Indexed struct {
	ids    []ID         // index -> ID, strictly increasing
	index  map[ID]int32 // ID -> index
	rowPtr []int32      // CSR row pointers, len n+1
	colIdx []int32      // neighbor indices, sorted ascending within a row
	colID  []ID         // neighbor IDs, aligned with colIdx

	bfsOnce  sync.Once
	bfsOrder []int32 // BFSOrder's result, computed on first use
}

// NewIndexed takes a snapshot of g. The snapshot orders nodes by
// increasing ID, matching g.Nodes().
func NewIndexed(g *Graph) *Indexed {
	ids := g.Nodes()
	n := len(ids)
	ix := &Indexed{
		ids:    ids,
		index:  make(map[ID]int32, n),
		rowPtr: make([]int32, n+1),
	}
	for i, v := range ids {
		ix.index[v] = int32(i)
	}
	total := 0
	for _, v := range ids {
		total += len(g.adj[v])
	}
	ix.colIdx = make([]int32, 0, total)
	ix.colID = make([]ID, total)
	for i, v := range ids {
		ix.rowPtr[i] = int32(len(ix.colIdx))
		for u := range g.adj[v] {
			//chordalvet:ignore maporder each CSR row is sorted in place immediately below
			ix.colIdx = append(ix.colIdx, ix.index[u])
		}
		row := ix.colIdx[ix.rowPtr[i]:]
		slices.Sort(row)
		for k, j := range row {
			ix.colID[int(ix.rowPtr[i])+k] = ix.ids[j]
		}
	}
	ix.rowPtr[n] = int32(len(ix.colIdx))
	return ix
}

// CSR returns the snapshot's raw compressed-sparse-row form: the ID
// table and the row-pointer/column-index arrays. The slices are shared
// views into the snapshot and must not be modified. Together with
// NewIndexedFromCSR this is the serialization boundary of a snapshot —
// the partitioned runtime ships exactly these three arrays to shard
// processes, which rebuild an identical Indexed on the other side.
func (ix *Indexed) CSR() (ids []ID, rowPtr, colIdx []int32) {
	return ix.ids, ix.rowPtr, ix.colIdx
}

// NewIndexedFromCSR rebuilds a snapshot from its CSR form (see CSR).
// The inputs must describe a valid snapshot: ids strictly increasing,
// rowPtr of length len(ids)+1 nondecreasing from 0 to len(colIdx), and
// every column index in range with each row sorted ascending. The
// arrays are adopted, not copied — the caller must not modify them
// afterwards. Validation is O(n+m): a shard process rebuilding a
// coordinator's snapshot must fail loudly on a corrupted transfer
// rather than silently diverge.
func NewIndexedFromCSR(ids []ID, rowPtr, colIdx []int32) (*Indexed, error) {
	n := len(ids)
	if len(rowPtr) != n+1 {
		return nil, fmt.Errorf("graph: CSR rowPtr has %d entries for %d nodes, want %d", len(rowPtr), n, n+1)
	}
	if rowPtr[0] != 0 || int(rowPtr[n]) != len(colIdx) {
		return nil, fmt.Errorf("graph: CSR rowPtr spans [%d, %d], want [0, %d]", rowPtr[0], rowPtr[n], len(colIdx))
	}
	// Nondecreasing from 0 to len(colIdx) keeps every row in bounds; it
	// must hold before any row is sliced.
	for i := 0; i < n; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("graph: CSR rowPtr decreases at row %d", i)
		}
	}
	ix := &Indexed{
		ids:    ids,
		index:  make(map[ID]int32, n),
		rowPtr: rowPtr,
		colIdx: colIdx,
		colID:  make([]ID, len(colIdx)),
	}
	for i, v := range ids {
		if i > 0 && v <= ids[i-1] {
			return nil, fmt.Errorf("graph: CSR ids not strictly increasing at index %d", i)
		}
		ix.index[v] = int32(i)
	}
	for i := 0; i < n; i++ {
		row := colIdx[rowPtr[i]:rowPtr[i+1]]
		for k, j := range row {
			if j < 0 || int(j) >= n {
				return nil, fmt.Errorf("graph: CSR row %d names index %d, out of range [0, %d)", i, j, n)
			}
			if k > 0 && j <= row[k-1] {
				return nil, fmt.Errorf("graph: CSR row %d not sorted ascending at position %d", i, k)
			}
			ix.colID[int(rowPtr[i])+k] = ids[j]
		}
	}
	return ix, nil
}

// NumNodes returns the number of nodes.
func (ix *Indexed) NumNodes() int { return len(ix.ids) }

// NumEdges returns the number of edges.
func (ix *Indexed) NumEdges() int { return len(ix.colIdx) / 2 }

// IDs returns all node IDs in increasing order. The slice is shared with
// the snapshot and must not be modified.
func (ix *Indexed) IDs() []ID { return ix.ids }

// IDOf returns the ID of the node at index i.
func (ix *Indexed) IDOf(i int) ID { return ix.ids[i] }

// IDSet returns the IDs of the nodes at indices idxs, in the same order:
// ascending indices give a Set, because indices ascend with IDs.
func (ix *Indexed) IDSet(idxs []int32) Set {
	s := make(Set, len(idxs))
	for i, x := range idxs {
		s[i] = ix.ids[x]
	}
	return s
}

// IndexOf returns the dense index of node v, and whether v is a node.
func (ix *Indexed) IndexOf(v ID) (int, bool) {
	i, ok := ix.index[v]
	return int(i), ok
}

// Degree returns the degree of the node at index i.
func (ix *Indexed) Degree(i int) int {
	return int(ix.rowPtr[i+1] - ix.rowPtr[i])
}

// NeighborIndices returns the neighbor indices of node i in ascending
// index order. The slice is shared with the snapshot and must not be
// modified.
func (ix *Indexed) NeighborIndices(i int) []int32 {
	return ix.colIdx[ix.rowPtr[i]:ix.rowPtr[i+1]]
}

// NeighborIDs returns the neighbor IDs of node i in ascending ID order
// (indices ascend with IDs, so the two orders agree). The slice is shared
// with the snapshot and must not be modified.
func (ix *Indexed) NeighborIDs(i int) []ID {
	return ix.colID[ix.rowPtr[i]:ix.rowPtr[i+1]]
}

// BFSOrder returns every node index once, in breadth-first order:
// components in ascending order of their smallest index, each searched
// from that index with neighbors taken in ascending order. Graph
// neighbors mostly land close together in it, which is what the LOCAL
// engine lays its node ranges and protocol state out by. It is computed
// once per snapshot, on first use, and safe for concurrent callers; the
// slice is shared and must not be modified.
func (ix *Indexed) BFSOrder() []int32 {
	ix.bfsOnce.Do(func() {
		n := len(ix.ids)
		order := make([]int32, 0, n)
		seen := make([]bool, n)
		for s := range n {
			if seen[s] {
				continue
			}
			seen[s] = true
			order = append(order, int32(s))
			for h := len(order) - 1; h < len(order); h++ {
				for _, u := range ix.NeighborIndices(int(order[h])) {
					if !seen[u] {
						seen[u] = true
						order = append(order, u)
					}
				}
			}
		}
		ix.bfsOrder = order
	})
	return ix.bfsOrder
}
