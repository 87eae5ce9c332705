package chordal

import (
	"fmt"
	"math"
)

// Elim is the index-space elimination kernel: maximum cardinality search
// over a member set of a CSR graph, the Tarjan–Yannakakis check that the
// resulting order is a perfect elimination order, and Gavril's
// independence number over that order. It is the one index-space
// implementation behind the clique-forest build (whose first forest also
// yields ω for the coloring pipelines), the peel's path α and the decide
// kernel's α rule; the map-backed MCS, PEO and IndependenceNumber are the
// oracles it is tested against.
//
// A run starts with MCS; CheckPEO, Positions and Alpha read the order it
// left, in any combination and order. Membership is an epoch stamp, so a
// run touches only the members' rows, and the per-row scratch is one
// allocation that grows to the largest graph seen and is reused after
// that; positions get their own, made only by the callers that need
// them. The zero value is ready to use; an Elim is not
// safe for concurrent use.
type Elim struct {
	rowPtr, cols []int32
	epoch        int32

	// Per-row scratch, carved from one allocation: stamp == epoch marks a
	// member of the current run; weight holds MCS weights, -1 once a row
	// is eliminated, and serves as the mark array of the scans after MCS;
	// order is the current run's elimination order.
	stamp, weight, order []int32
	pos                  []int32 // row -> position, grown and filled by Positions
	heap                 []uint64
}

// grow sizes the scratch for an n-row graph and starts a new epoch.
func (k *Elim) grow(n int) {
	if len(k.stamp) < n {
		buf := make([]int32, 3*n)
		k.stamp = buf[:n:n]
		k.weight = buf[n : 2*n : 2*n]
		k.order = buf[2*n:]
	}
	if k.epoch == math.MaxInt32 {
		clear(k.stamp)
		k.epoch = 0
	}
	k.epoch++
}

func (k *Elim) row(v int32) []int32 { return k.cols[k.rowPtr[v]:k.rowPtr[v+1]] }

// MCS runs maximum cardinality search on the subgraph of the CSR graph
// (rowPtr, cols) induced by members, which must be distinct rows, and
// returns the elimination order v_1..v_k, the reverse of the selection
// order. Selection takes the heaviest row first and the smallest row on
// ties whatever the order of members, so on a graph.Indexed snapshot,
// whose rows ascend with node IDs, the order is the one MCS gives the
// induced subgraph. It is a perfect elimination order iff that subgraph
// is chordal. The result is valid until the next MCS.
func (k *Elim) MCS(rowPtr, cols, members []int32) []int32 {
	n := len(rowPtr) - 1
	k.rowPtr, k.cols = rowPtr, cols
	k.grow(n)
	ep := k.epoch
	// Max-heap on weight<<32 | n-1-row, so the top is the heaviest row
	// and the smallest one on ties. An entry is stale once its row's
	// weight has grown or the row is eliminated (weight -1), and is
	// skipped on pop. Keys are distinct, so the pop order does not depend
	// on the seeding order; ascending members append descending keys, so
	// each seed is already in heap position.
	h := k.heap[:0]
	for _, v := range members {
		k.stamp[v] = ep
		k.weight[v] = 0
		h = heapPush(h, uint64(int32(n-1)-v))
	}
	order := k.order[:len(members)]
	for i := len(order) - 1; i >= 0; i-- {
		var v int32
		for {
			top := h[0]
			h = heapPop(h)
			v = int32(n-1) - int32(top&0xffffffff)
			if k.weight[v] == int32(top>>32) {
				break
			}
		}
		order[i] = v
		k.weight[v] = -1
		for _, u := range k.row(v) {
			if k.stamp[u] == ep && k.weight[u] >= 0 {
				k.weight[u]++
				h = heapPush(h, uint64(k.weight[u])<<32|uint64(int32(n-1)-u))
			}
		}
	}
	k.heap = h[:0]
	k.order = order
	return order
}

// Positions returns each member row's position in the current order,
// indexed by row; entries of other rows are meaningless. The result is
// valid until the next MCS.
func (k *Elim) Positions() []int32 {
	if len(k.pos) < len(k.stamp) {
		k.pos = make([]int32, len(k.stamp))
	}
	for i, v := range k.order {
		k.pos[v] = int32(i)
	}
	return k.pos
}

// CheckPEO verifies that the current order is a perfect elimination
// order by Tarjan–Yannakakis: each row's earliest later neighbor must be
// adjacent to the rest of its later neighbors. This accepts exactly the
// orders IsPEO accepts, so after MCS it fails iff the member subgraph is
// not chordal, with PEO's error text for that subgraph.
func (k *Elim) CheckPEO() error {
	pos := k.Positions()
	ep := k.epoch
	mark := k.weight
	for _, v := range k.order {
		mark[v] = -1
	}
	for i, v := range k.order {
		at := int32(i)
		u, uPos := int32(-1), int32(len(k.order))
		for _, w := range k.row(v) {
			if k.stamp[w] == ep && pos[w] > at && pos[w] < uPos {
				u, uPos = w, pos[w]
			}
		}
		if u < 0 {
			continue
		}
		for _, w := range k.row(u) {
			if k.stamp[w] == ep {
				mark[w] = at
			}
		}
		for _, w := range k.row(v) {
			if k.stamp[w] == ep && pos[w] > at && w != u && mark[w] != at {
				return fmt.Errorf("graph is not chordal (n=%d, m=%d)", len(k.order), k.memberEdges())
			}
		}
	}
	return nil
}

// memberEdges counts the edges of the member subgraph.
func (k *Elim) memberEdges() int {
	m := 0
	for _, v := range k.order {
		for _, u := range k.row(v) {
			if k.stamp[u] == k.epoch {
				m++
			}
		}
	}
	return m / 2
}

// Alpha returns Gavril's count over the current order: scan it and take
// every row none of whose neighbors has been taken. When the order is a
// perfect elimination order this is α of the member subgraph, whatever
// the tie-breaking that produced it.
func (k *Elim) Alpha() int {
	ep := k.epoch
	blocked := k.weight
	for _, v := range k.order {
		blocked[v] = 0
	}
	alpha := 0
	for _, v := range k.order {
		if blocked[v] != 0 {
			continue
		}
		alpha++
		for _, u := range k.row(v) {
			if k.stamp[u] == ep {
				blocked[u] = 1
			}
		}
	}
	return alpha
}

// heapPush pushes a key onto the packed max-heap h.
func heapPush(h []uint64, key uint64) []uint64 {
	h = append(h, key)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes the max key h[0] from the packed max-heap h.
func heapPop(h []uint64) []uint64 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h[l] > h[big] {
			big = l
		}
		if r < last && h[r] > h[big] {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return h
}
