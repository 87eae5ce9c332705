// Package core implements the paper's contribution: the centralized and
// distributed (1+ε)-approximation algorithms for Minimum Vertex Coloring
// (Algorithms 1–4, Theorems 3–4) and Maximum Independent Set
// (Algorithms 5–6, Theorems 5–8) on chordal and interval graphs, built on
// the clique-forest, peeling, LOCAL-simulation and symmetry-breaking
// substrates.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// ExtendColoring implements the constructive side of Lemmas 9–10: given an
// interval strip (nodes of g) where some nodes carry fixed colors (the
// boundary cliques and the untouched interior), properly color the
// remaining nodes with colors from [1, palette]. Nodes are processed in
// left-endpoint order along the clique path; when plain greedy fails the
// engine falls back to exhaustive backtracking, whose success within the
// Lemma-9 palette is guaranteed whenever the fixed regions are at distance
// at least k+3.
//
// path must be a consecutive arrangement of the maximal cliques of g.
func ExtendColoring(g *graph.Graph, path []graph.Set, fixed map[graph.ID]int, palette int) (map[graph.ID]int, error) {
	order := leftEndpointOrder(g, path)
	free := make([]graph.ID, 0, len(order))
	for _, v := range order {
		if _, ok := fixed[v]; !ok {
			free = append(free, v)
		}
	}
	// Both checks walk the fixed nodes in ascending ID order, so an
	// error names the lowest offender (and a conflict its lower end
	// first), as the index-space correction kernel does.
	fixedIDs := make([]graph.ID, 0, len(fixed))
	for v := range fixed {
		fixedIDs = append(fixedIDs, v)
	}
	slices.Sort(fixedIDs)
	colors := make(map[graph.ID]int, len(order))
	for _, v := range fixedIDs {
		c := fixed[v]
		if c < 1 || c > palette {
			return nil, fmt.Errorf("fixed color %d of node %d outside palette [1,%d]", c, v, palette)
		}
		colors[v] = c
	}
	// Fixed nodes must already be mutually consistent.
	for _, v := range fixedIDs {
		for _, u := range g.Neighbors(v) {
			if cu, ok := fixed[u]; ok && cu == fixed[v] {
				return nil, fmt.Errorf("fixed colors conflict on edge %d-%d", v, u)
			}
		}
	}
	budget := backtrackBudget
	if backtrack(g, free, 0, colors, palette, &budget) {
		return colors, nil
	}
	if budget <= 0 {
		return nil, fmt.Errorf("recoloring search exceeded %d steps (palette %d)", backtrackBudget, palette)
	}
	return nil, fmt.Errorf("no extension with %d colors exists", palette)
}

// backtrackBudget bounds the recoloring search. LOCAL allows unbounded
// computation, but a library should fail loudly rather than hang; the
// Lemma-9 instances the algorithms generate resolve in near-linear steps,
// orders of magnitude below this cap (experiment E8).
const backtrackBudget = 20_000_000

// backtrack assigns free[i:] in order, trying colors ascending. Processing
// in left-endpoint order keeps already-colored neighbors to a clique, so
// plain greedy succeeds whenever the right boundary is far; the
// backtracking only engages near fixed right boundaries.
func backtrack(g *graph.Graph, free []graph.ID, i int, colors map[graph.ID]int, palette int, budget *int) bool {
	if i == len(free) {
		return true
	}
	*budget--
	if *budget <= 0 {
		return false
	}
	v := free[i]
	used := make(map[int]bool)
	for _, u := range g.Neighbors(v) {
		if c, ok := colors[u]; ok {
			used[c] = true
		}
	}
	for c := 1; c <= palette; c++ {
		if used[c] {
			continue
		}
		colors[v] = c
		if backtrack(g, free, i+1, colors, palette, budget) {
			return true
		}
		delete(colors, v)
	}
	return false
}

// leftEndpointOrder orders the strip's nodes by the position of their
// first clique along the path (ties by last clique, then ID) — the
// interval-graph left-endpoint order.
func leftEndpointOrder(g *graph.Graph, path []graph.Set) []graph.ID {
	first := make(map[graph.ID]int)
	last := make(map[graph.ID]int)
	for i, c := range path {
		for _, v := range c {
			if _, ok := first[v]; !ok {
				first[v] = i
			}
			last[v] = i
		}
	}
	nodes := g.Nodes()
	sort.Slice(nodes, func(a, b int) bool {
		va, vb := nodes[a], nodes[b]
		if first[va] != first[vb] {
			return first[va] < first[vb]
		}
		if last[va] != last[vb] {
			return last[va] < last[vb]
		}
		return va < vb
	})
	return nodes
}

// RecolorZone computes, per Lemma 10, the set of strip nodes that must be
// recolored: those at distance at most horizon (= k+3) in g from any node
// of boundary. The remaining nodes keep their colors.
func RecolorZone(g *graph.Graph, boundary graph.Set, horizon int) graph.Set {
	var zone graph.Set
	reached := make(map[graph.ID]int)
	var frontier []graph.ID
	for _, b := range boundary {
		if g.HasNode(b) {
			reached[b] = 0
			frontier = append(frontier, b)
		}
	}
	for d := 1; d <= horizon && len(frontier) > 0; d++ {
		var next []graph.ID
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if _, ok := reached[u]; !ok {
					reached[u] = d
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	inBoundary := make(map[graph.ID]bool, len(boundary))
	for _, b := range boundary {
		inBoundary[b] = true
	}
	for v := range reached {
		if !inBoundary[v] {
			zone = append(zone, v)
		}
	}
	return graph.NewSet(zone...)
}
