// Package verify provides validity checkers and exact brute-force
// references used by tests and benchmarks: legal-coloring and
// independent-set checks, and exponential-time exact solvers for small
// instances.
package verify

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Coloring checks that colors assigns a positive color to every node of g
// and that adjacent nodes have different colors. It returns the number of
// distinct colors used.
func Coloring(g *graph.Graph, colors map[graph.ID]int) (int, error) {
	distinct := make(map[int]bool)
	for _, v := range g.Nodes() {
		c, ok := colors[v]
		if !ok {
			return 0, fmt.Errorf("node %d has no color", v)
		}
		if c <= 0 {
			return 0, fmt.Errorf("node %d has non-positive color %d", v, c)
		}
		distinct[c] = true
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return 0, fmt.Errorf("edge %d-%d is monochromatic (color %d)", e[0], e[1], colors[e[0]])
		}
	}
	return len(distinct), nil
}

// IndependentSet checks that is ⊆ V(g) and that no two members are
// adjacent. It walks each member's neighbours once and names the pair a
// pairwise scan meets first — the smallest i, then the smallest j > i
// with is[i] ~ is[j] — for unsorted or duplicated input too.
func IndependentSet(g *graph.Graph, is graph.Set) error {
	at := make(map[graph.ID][]int, len(is)) // each member's positions, ascending
	for p, v := range is {
		if !g.HasNode(v) {
			return fmt.Errorf("node %d not in graph", v)
		}
		at[v] = append(at[v], p)
	}
	for i, v := range is {
		j := len(is)
		g.ForEachNeighbor(v, func(u graph.ID) {
			for _, p := range at[u] {
				if p > i {
					j = min(j, p)
					break
				}
			}
		})
		if j < len(is) {
			return fmt.Errorf("members %d and %d are adjacent", v, is[j])
		}
	}
	return nil
}

// MaximalIndependentSet checks that is is independent and cannot be
// extended by any vertex outside it.
func MaximalIndependentSet(g *graph.Graph, is graph.Set) error {
	if err := IndependentSet(g, is); err != nil {
		return err
	}
	for _, v := range g.Nodes() {
		if is.Contains(v) {
			continue
		}
		extendable := true
		for _, u := range g.Neighbors(v) {
			if is.Contains(u) {
				extendable = false
				break
			}
		}
		if extendable {
			return fmt.Errorf("node %d could be added: set is not maximal", v)
		}
	}
	return nil
}

// BruteForceAlpha computes the exact independence number by exhaustive
// search. It requires g to have at most 30 nodes.
func BruteForceAlpha(g *graph.Graph) (int, error) {
	nodes := g.Nodes()
	n := len(nodes)
	if n > 30 {
		return 0, fmt.Errorf("graph too large for brute force: %d nodes", n)
	}
	idx := make(map[graph.ID]int, n)
	for i, v := range nodes {
		idx[v] = i
	}
	adj := make([]uint64, n)
	for _, e := range g.Edges() {
		i, j := idx[e[0]], idx[e[1]]
		adj[i] |= 1 << uint(j)
		adj[j] |= 1 << uint(i)
	}
	best := 0
	var rec func(cand uint64, size int)
	rec = func(cand uint64, size int) {
		if size+bits.OnesCount64(cand) <= best {
			return
		}
		if cand == 0 {
			if size > best {
				best = size
			}
			return
		}
		// Branch on the lowest candidate bit: in or out.
		i := bits.TrailingZeros64(cand)
		rec(cand&^(1<<uint(i))&^adj[i], size+1)
		rec(cand&^(1<<uint(i)), size)
	}
	rec((uint64(1)<<uint(n))-1, 0)
	return best, nil
}

// BruteForceChromatic computes the exact chromatic number by exhaustive
// search. It requires g to have at most 20 nodes.
func BruteForceChromatic(g *graph.Graph) (int, error) {
	nodes := g.Nodes()
	n := len(nodes)
	if n == 0 {
		return 0, nil
	}
	if n > 20 {
		return 0, fmt.Errorf("graph too large for brute force: %d nodes", n)
	}
	for k := 1; ; k++ {
		if colorableWith(g, nodes, k) {
			return k, nil
		}
	}
}

func colorableWith(g *graph.Graph, nodes []graph.ID, k int) bool {
	colors := make(map[graph.ID]int, len(nodes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return true
		}
		v := nodes[i]
		// Symmetry breaking: the i-th node may only introduce color i+1.
		maxColor := i + 1
		if maxColor > k {
			maxColor = k
		}
	next:
		for c := 1; c <= maxColor; c++ {
			for _, u := range g.Neighbors(v) {
				if colors[u] == c {
					continue next
				}
			}
			colors[v] = c
			if rec(i + 1) {
				return true
			}
			delete(colors, v)
		}
		return false
	}
	return rec(0)
}
