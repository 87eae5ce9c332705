// Package chordal implements the classical chordal-graph toolkit the paper
// builds on: maximum cardinality search, perfect elimination orderings,
// chordality recognition, maximal-clique enumeration (an n-node chordal
// graph has at most n maximal cliques), and the exact centralized baselines
// used to measure approximation factors — optimal coloring (χ = ω for
// chordal graphs) and maximum independent set (Gavril's algorithm).
package chordal

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
)

// MCS runs Maximum Cardinality Search and returns a vertex ordering
// v_1, ..., v_n (as a slice indexed from 0). If the graph is chordal, the
// returned ordering is a perfect elimination ordering. Ties are broken by
// smallest node ID, so the result is deterministic.
func MCS(g *graph.Graph) []graph.ID {
	n := g.NumNodes()
	order := make([]graph.ID, n) // filled from the back: selection order is v_n..v_1
	visited := make(map[graph.ID]bool, n)
	weight := make(map[graph.ID]int, n)

	pq := &mcsHeap{}
	heap.Init(pq)
	entries := make(map[graph.ID]*mcsEntry, n)
	for _, v := range g.Nodes() {
		e := &mcsEntry{node: v}
		entries[v] = e
		heap.Push(pq, e)
	}
	for i := n - 1; i >= 0; i-- {
		var v graph.ID
		for {
			e := heap.Pop(pq).(*mcsEntry)
			if e.stale {
				continue
			}
			v = e.node
			break
		}
		order[i] = v
		visited[v] = true
		for _, u := range g.Neighbors(v) {
			if visited[u] {
				continue
			}
			weight[u]++
			entries[u].stale = true
			e := &mcsEntry{node: u, weight: weight[u]}
			entries[u] = e
			heap.Push(pq, e)
		}
	}
	return order
}

type mcsEntry struct {
	node   graph.ID
	weight int
	stale  bool
}

// mcsHeap is a max-heap on (weight, then smaller ID preferred).
type mcsHeap []*mcsEntry

func (h mcsHeap) Len() int { return len(h) }
func (h mcsHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight > h[j].weight
	}
	return h[i].node < h[j].node
}
func (h mcsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mcsHeap) Push(x interface{}) { *h = append(*h, x.(*mcsEntry)) }
func (h *mcsHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// IsPEO reports whether order is a perfect elimination ordering of g: for
// every vertex, its neighbors appearing later in the order form a clique.
func IsPEO(g *graph.Graph, order []graph.ID) bool {
	if len(order) != g.NumNodes() {
		return false
	}
	pos := make(map[graph.ID]int, len(order))
	for i, v := range order {
		if _, dup := pos[v]; dup || !g.HasNode(v) {
			return false
		}
		pos[v] = i
	}
	for i, v := range order {
		var later []graph.ID
		for _, u := range g.Neighbors(v) {
			if pos[u] > i {
				later = append(later, u)
			}
		}
		if !g.IsClique(later) {
			return false
		}
	}
	return true
}

// IsChordal reports whether g is chordal (every cycle of length >= 4 has a
// chord), using the MCS characterization.
func IsChordal(g *graph.Graph) bool {
	return IsPEO(g, MCS(g))
}

// PEO returns a perfect elimination ordering of g, or an error if g is not
// chordal.
func PEO(g *graph.Graph) ([]graph.ID, error) {
	order := MCS(g)
	if !IsPEO(g, order) {
		return nil, fmt.Errorf("graph is not chordal (n=%d, m=%d)", g.NumNodes(), g.NumEdges())
	}
	return order, nil
}

// MaximalCliques enumerates the maximal cliques of a chordal graph using a
// perfect elimination ordering: the candidate cliques are
// C_i = {v_i} ∪ Γ_later(v_i), and C_i is maximal iff no vertex earlier in
// the order is adjacent to all of C_i. Cliques are returned as sorted sets,
// ordered by their position in the PEO. Returns an error if g is not
// chordal.
func MaximalCliques(g *graph.Graph) ([]graph.Set, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	pos := make(map[graph.ID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	var cliques []graph.Set
	for i, v := range order {
		cand := graph.Set{v}
		for _, u := range g.Neighbors(v) {
			if pos[u] > i {
				cand = append(cand, u)
			}
		}
		cand = graph.NewSet(cand...)
		if isMaximalClique(g, cand, pos, i) {
			cliques = append(cliques, cand)
		}
	}
	return cliques, nil
}

// isMaximalClique reports whether no vertex earlier than position i is
// adjacent to every member of cand. (A common neighbor later than i would
// itself be in cand, so only earlier vertices can witness non-maximality.)
func isMaximalClique(g *graph.Graph, cand graph.Set, pos map[graph.ID]int, i int) bool {
	// Candidates are the earlier neighbors of cand's PEO-first vertex
	// (which is at position i); intersect with adjacency of the rest.
	v := cand[0]
	for _, u := range cand {
		if pos[u] == i {
			v = u
			break
		}
	}
	for _, u := range g.Neighbors(v) {
		if pos[u] >= i {
			continue
		}
		adjacentToAll := true
		for _, w := range cand {
			if w != v && !g.HasEdge(u, w) {
				adjacentToAll = false
				break
			}
		}
		if adjacentToAll {
			return false
		}
	}
	return true
}

// CliqueNumber returns ω(g) for a chordal graph g, which equals its
// chromatic number χ(g) (chordal graphs are perfect).
func CliqueNumber(g *graph.Graph) (int, error) {
	if g.NumNodes() == 0 {
		return 0, nil
	}
	order, err := PEO(g)
	if err != nil {
		return 0, err
	}
	pos := make(map[graph.ID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	best := 1
	for i, v := range order {
		size := 1
		for _, u := range g.Neighbors(v) {
			if pos[u] > i {
				size++
			}
		}
		if size > best {
			best = size
		}
	}
	return best, nil
}

// OptimalColoring returns a minimum proper coloring of a chordal graph:
// vertices are colored in reverse perfect elimination order with the
// smallest available color, which uses exactly ω(g) = χ(g) colors.
// Colors are 1-based.
func OptimalColoring(g *graph.Graph) (map[graph.ID]int, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	colors := make(map[graph.ID]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		colors[v] = smallestFreeColor(g, v, colors)
	}
	return colors, nil
}

// smallestFreeColor returns the least positive color unused among v's
// already-colored neighbors.
func smallestFreeColor(g *graph.Graph, v graph.ID, colors map[graph.ID]int) int {
	used := make(map[int]bool)
	for _, u := range g.Neighbors(v) {
		if c, ok := colors[u]; ok {
			used[c] = true
		}
	}
	for c := 1; ; c++ {
		if !used[c] {
			return c
		}
	}
}

// MaximumIndependentSet returns a maximum independent set of a chordal
// graph via Gavril's algorithm: scan a perfect elimination ordering and
// take every vertex none of whose neighbors has been taken.
func MaximumIndependentSet(g *graph.Graph) (graph.Set, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	blocked := make(map[graph.ID]bool, len(order))
	var is graph.Set
	for _, v := range order {
		if blocked[v] {
			continue
		}
		is = append(is, v)
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return graph.NewSet(is...), nil
}

// IndependenceNumber returns α(g) for chordal g.
func IndependenceNumber(g *graph.Graph) (int, error) {
	is, err := MaximumIndependentSet(g)
	if err != nil {
		return 0, err
	}
	return len(is), nil
}

// AllLabeled calls fn once with every labeled chordal graph on the nodes
// 1, …, n, in the order of its edge set read as a binary number (bit i
// is the i-th pair u < v in lexicographic order). There are 1, 2, 8, 61,
// 822, 18154 and 617675 of them for n = 1, …, 7 (OEIS A058862); the
// enumeration tests all 2^(n(n−1)/2) edge sets.
func AllLabeled(n int, fn func(*graph.Graph)) {
	var pairs [][2]graph.ID
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			pairs = append(pairs, [2]graph.ID{graph.ID(u), graph.ID(v)})
		}
	}
	for mask := uint64(0); mask < 1<<len(pairs); mask++ {
		g := graph.New()
		for v := 1; v <= n; v++ {
			g.AddNode(graph.ID(v))
		}
		for i, p := range pairs {
			if mask>>i&1 == 1 {
				g.AddEdge(p[0], p[1])
			}
		}
		if IsChordal(g) {
			fn(g)
		}
	}
}
