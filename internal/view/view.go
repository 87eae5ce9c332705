// Package view provides reusable CSR views of ball graphs in
// snapshot-index space for the pruning phase's decide kernel.
//
// The decide stage of the distributed pruning phase (Algorithm 2/6)
// historically materialized each center's ball as a fresh map-backed
// graph.Graph (Knowledge.FilteredBallGraph) before deciding. A Ball is
// the allocation-lean replacement: a compact CSR over dense rows,
// rebuilt in place from either a Knowledge record stream (Source) or a
// filtered graph.Indexed snapshot, with O(1) amortized reset via
// epoch-stamped membership marks. All per-ball state lives in the Ball
// and its companion Scratch, so one pair per worker serves every center
// that worker decides, across all iterations, without further
// allocation once warm.
//
// Rows preserve the builder's deterministic order (record discovery
// order for Source builds, snapshot-index order for Indexed builds) and
// each row's columns preserve the source adjacency order (ascending
// snapshot index), so every consumer sees the same view on every run.
package view

import (
	"repro/internal/graph"
)

// Source is a stream of ball records in nondecreasing-distance
// discovery order, each carrying a node's dense snapshot index and its
// adjacency row in snapshot-index space. dist.Knowledge implements it.
type Source interface {
	RecordCount() int
	RecordAt(i int) (idx int32, dist int32, adj []int32)
}

// Ball is a reusable CSR view of one ball graph. Rows are dense local
// indices; Nodes maps each row back to its snapshot index, and each
// row's columns are the ROWS of its neighbors inside the ball, so BFS
// and induced-subgraph extraction run on plain arrays with no lookups.
//
// The zero value is ready to use; Build* methods reset and refill it.
// A built Ball is read-only until the next Build*: Nodes and Row return
// shared views into its storage.
type Ball struct {
	nodes  []int32 // row -> snapshot index
	rowPtr []int32 // len(nodes)+1 offsets into cols
	cols   []int32 // neighbor rows, concatenated per row

	// rowOf inverts nodes (snapshot index -> row); an entry is valid
	// only when mark holds the current epoch, so reset is O(1) instead
	// of O(n). The epoch is int64: it only ever increments, and at a
	// billion rebuilds per second it would take centuries to wrap, so
	// no wrap guard (and no periodic O(n) mark sweep) is needed.
	rowOf []int32
	mark  []int64
	epoch int64
}

// reset prepares the ball for a rebuild over a snapshot of n nodes.
func (b *Ball) reset(n int) {
	if len(b.rowOf) < n {
		b.rowOf = make([]int32, n)
		b.mark = make([]int64, n)
	}
	b.epoch++
	b.nodes = b.nodes[:0]
	b.cols = b.cols[:0]
	if b.rowPtr == nil {
		b.rowPtr = make([]int32, 1, 64)
	}
	b.rowPtr = b.rowPtr[:1]
	b.rowPtr[0] = 0
}

// NumRows returns the number of nodes in the ball.
func (b *Ball) NumRows() int { return len(b.nodes) }

// Nodes returns the row -> snapshot-index table. The result is a shared
// view into the ball's storage: treat it as read-only.
func (b *Ball) Nodes() []int32 { return b.nodes }

// NodeAt returns the snapshot index of row r.
func (b *Ball) NodeAt(r int32) int32 { return b.nodes[r] }

// Row returns row r's neighbor rows. The result is a shared view into
// the ball's storage: treat it as read-only.
func (b *Ball) Row(r int32) []int32 { return b.cols[b.rowPtr[r]:b.rowPtr[r+1]] }

// CSR returns the ball's compressed-sparse-row form over its rows: the
// row pointers and the concatenated neighbor rows. Both are shared views
// into the ball's storage: treat them as read-only.
func (b *Ball) CSR() (rowPtr, cols []int32) { return b.rowPtr, b.cols }

// RowOf returns the row of the node at snapshot index idx, or -1 when
// the node is not in the ball.
func (b *Ball) RowOf(idx int32) int32 {
	if b.mark[idx] != b.epoch {
		return -1
	}
	return b.rowOf[idx]
}

// BuildFromSource rebuilds the ball from a record stream: the nodes at
// record distance at most radius that pass keep (nil keeps all; keep is
// indexed by snapshot index), with the adjacency restricted to that
// member set — the index-space equivalent of
// Knowledge.FilteredBallGraph. n is the snapshot's node count. Rows are
// in record order; records beyond the first one past radius are
// ignored, and duplicate records keep their first occurrence.
//
//chordalvet:hotpath budget=6 view rebuild: epoch reset keeps rebuilds allocation-free steady-state
func (b *Ball) BuildFromSource(src Source, n, radius int, keep []bool) {
	b.reset(n)
	m := src.RecordCount()
	cut := m
	for i := 0; i < m; i++ {
		idx, d, _ := src.RecordAt(i)
		if int(d) > radius {
			cut = i
			break
		}
		if keep != nil && !keep[idx] {
			continue
		}
		if b.mark[idx] == b.epoch {
			continue
		}
		b.mark[idx] = b.epoch
		b.rowOf[idx] = int32(len(b.nodes))
		b.nodes = append(b.nodes, idx)
	}
	r := int32(0)
	for i := 0; i < cut; i++ {
		idx, _, adj := src.RecordAt(i)
		if (keep != nil && !keep[idx]) || b.rowOf[idx] != r {
			continue
		}
		for _, u := range adj {
			if b.mark[u] == b.epoch {
				b.cols = append(b.cols, b.rowOf[u])
			}
		}
		b.rowPtr = append(b.rowPtr, int32(len(b.cols)))
		r++
	}
}

// BuildFromIndexed rebuilds the ball as the subgraph of a snapshot
// induced by the kept indices (nil keeps all). Rows are in snapshot
// order, so row order coincides with ascending node ID.
//
//chordalvet:hotpath budget=6 view rebuild: epoch reset keeps rebuilds allocation-free steady-state
func (b *Ball) BuildFromIndexed(ix *graph.Indexed, keep []bool) {
	n := ix.NumNodes()
	b.reset(n)
	for i := 0; i < n; i++ {
		if keep != nil && !keep[i] {
			continue
		}
		b.mark[i] = b.epoch
		b.rowOf[i] = int32(len(b.nodes))
		b.nodes = append(b.nodes, int32(i))
	}
	for _, idx := range b.nodes {
		for _, u := range ix.NeighborIndices(int(idx)) {
			if b.mark[u] == b.epoch {
				b.cols = append(b.cols, b.rowOf[u])
			}
		}
		b.rowPtr = append(b.rowPtr, int32(len(b.cols)))
	}
}

// Scratch bundles a worker-private Ball with the BFS working storage
// the decide kernel needs alongside it: one scratch per worker, reused
// across centers. The BFS method takes the ball explicitly because a
// worker alternates between its private ball and an iteration-shared
// read-only one.
type Scratch struct {
	Priv  Ball    // worker-private ball, rebuilt per center as needed
	DistC []int32 // center BFS distances by row; -1 = unreachable
	queue []int32
}

// CenterBFS fills DistC with BFS distances from the given row over b.
func (s *Scratch) CenterBFS(b *Ball, row int32) {
	s.DistC = ballBFS(b, row, s.DistC, &s.queue)
}

// ballBFS is a plain-array BFS over the ball CSR. Neighbor order only
// affects queue order within a level, never the distances.
func ballBFS(b *Ball, src int32, dist []int32, queue *[]int32) []int32 {
	nr := b.NumRows()
	if cap(dist) < nr {
		dist = make([]int32, nr)
	} else {
		dist = dist[:nr]
	}
	for i := range dist {
		dist[i] = -1
	}
	q := (*queue)[:0]
	dist[src] = 0
	q = append(q, src)
	for h := 0; h < len(q); h++ {
		v := q[h]
		d := dist[v] + 1
		for _, u := range b.Row(v) {
			if dist[u] < 0 {
				dist[u] = d
				q = append(q, u)
			}
		}
	}
	*queue = q
	return dist
}
