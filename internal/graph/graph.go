// Package graph provides the undirected-graph substrate used throughout the
// reproduction: graphs over arbitrary integer node IDs with deterministic
// (sorted) adjacency iteration, breadth-first search, induced subgraphs,
// connected components, and graph powers.
//
// Node identifiers are opaque integers. The paper's algorithms break
// symmetry with unique IDs, so IDs are part of the model, not just an
// implementation detail.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// ID identifies a node of a graph. IDs are unique within a graph and are
// used by the distributed algorithms for symmetry breaking.
type ID int

// Graph is an undirected simple graph. The zero value is not usable; create
// instances with New. Graph is not safe for concurrent mutation.
type Graph struct {
	adj map[ID]map[ID]struct{}
	// nbrCache holds sorted adjacency slices built by Neighbors, so that
	// repeated reads (the common case after construction) are
	// allocation-free. Entries are invalidated when the incident node's
	// adjacency mutates; cached slices are never modified in place, so a
	// slice handed out before a mutation stays a valid pre-mutation
	// snapshot. nil until the first Neighbors call, so pure construction
	// pays nothing.
	nbrCache map[ID][]ID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[ID]map[ID]struct{})}
}

// invalidate drops v's cached adjacency slice after a mutation.
func (g *Graph) invalidate(v ID) {
	if g.nbrCache != nil {
		delete(g.nbrCache, v)
	}
}

// FromEdges builds a graph containing the given nodes and edges. Nodes
// mentioned only in edges are added implicitly.
func FromEdges(nodes []ID, edges [][2]ID) *Graph {
	g := New()
	for _, v := range nodes {
		g.AddNode(v)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// AddNode inserts node v. Adding an existing node is a no-op.
func (g *Graph) AddNode(v ID) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = make(map[ID]struct{})
	}
}

// AddEdge inserts the undirected edge uv, adding endpoints as needed.
// Self-loops are ignored.
func (g *Graph) AddEdge(u, v ID) {
	if u == v {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.adj[u][v]; ok {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.invalidate(u)
	g.invalidate(v)
}

// RemoveNode deletes node v and all incident edges.
func (g *Graph) RemoveNode(v ID) {
	for u := range g.adj[v] {
		delete(g.adj[u], v)
		g.invalidate(u)
	}
	delete(g.adj, v)
	g.invalidate(v)
}

// RemoveNodes deletes every node in vs.
func (g *Graph) RemoveNodes(vs []ID) {
	for _, v := range vs {
		g.RemoveNode(v)
	}
}

// HasNode reports whether v is a node of g.
func (g *Graph) HasNode(v ID) bool {
	_, ok := g.adj[v]
	return ok
}

// HasEdge reports whether the edge uv exists.
func (g *Graph) HasEdge(u, v ID) bool {
	nb, ok := g.adj[u]
	if !ok {
		return false
	}
	_, ok = nb[v]
	return ok
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// Nodes returns all nodes in increasing ID order.
func (g *Graph) Nodes() []ID {
	out := make([]ID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Edges returns all edges with e[0] < e[1], sorted lexicographically.
func (g *Graph) Edges() [][2]ID {
	out := make([][2]ID, 0, g.NumEdges())
	for u, nb := range g.adj {
		for v := range nb {
			if u < v {
				out = append(out, [2]ID{u, v})
			}
		}
	}
	slices.SortFunc(out, func(a, b [2]ID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// Neighbors returns the open neighborhood Γ(v) in increasing ID order.
// The result is cached until v's adjacency next mutates and is shared
// between callers: treat it as read-only.
func (g *Graph) Neighbors(v ID) []ID {
	if out, ok := g.nbrCache[v]; ok {
		return out
	}
	nb := g.adj[v]
	out := make([]ID, 0, len(nb))
	for u := range nb {
		out = append(out, u)
	}
	slices.Sort(out)
	if g.nbrCache == nil {
		g.nbrCache = make(map[ID][]ID)
	}
	g.nbrCache[v] = out
	return out
}

// ClosedNeighbors returns Γ[v] = Γ(v) ∪ {v} in increasing ID order.
func (g *Graph) ClosedNeighbors(v ID) []ID {
	nb := g.Neighbors(v)
	out := make([]ID, 0, len(nb)+1)
	i := 0
	for ; i < len(nb) && nb[i] < v; i++ {
		out = append(out, nb[i])
	}
	out = append(out, v)
	out = append(out, nb[i:]...)
	return out
}

// ForEachNeighbor calls fn for every neighbor of v in unspecified order,
// without allocating. Hot paths (BFS and friends) use this instead of
// Neighbors; callers needing deterministic order use Neighbors.
func (g *Graph) ForEachNeighbor(v ID, fn func(u ID)) {
	for u := range g.adj[v] {
		fn(u)
	}
}

// Degree returns deg(v); zero if v is not a node.
func (g *Graph) Degree(v ID) int { return len(g.adj[v]) }

// MaxDegree returns Δ(g), the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make(map[ID]map[ID]struct{}, len(g.adj))}
	for v, nb := range g.adj {
		cnb := make(map[ID]struct{}, len(nb))
		for u := range nb {
			cnb[u] = struct{}{}
		}
		c.adj[v] = cnb
	}
	return c
}

// InducedSubgraph returns g[vs], the subgraph induced by the given nodes.
// Nodes not present in g are ignored.
func (g *Graph) InducedSubgraph(vs []ID) *Graph {
	sub := New()
	keep := make(map[ID]struct{}, len(vs))
	for _, v := range vs {
		if g.HasNode(v) {
			keep[v] = struct{}{}
			sub.AddNode(v)
		}
	}
	for v := range keep {
		for u := range g.adj[v] {
			if _, ok := keep[u]; ok && v < u {
				sub.AddEdge(v, u)
			}
		}
	}
	return sub
}

// IsClique reports whether the given nodes are pairwise adjacent in g.
func (g *Graph) IsClique(vs []ID) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// BFSDistances returns the distance from src to every reachable node.
func (g *Graph) BFSDistances(src ID) map[ID]int {
	dist := map[ID]int{src: 0}
	frontier := []ID{src}
	for len(frontier) > 0 {
		var next []ID
		for _, v := range frontier {
			d := dist[v]
			for u := range g.adj[v] {
				if _, seen := dist[u]; !seen {
					dist[u] = d + 1
					//chordalvet:ignore maporder frontier order does not affect the distance map: BFS levels are order-independent
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Distance returns dist(u, v), or -1 if v is unreachable from u.
func (g *Graph) Distance(u, v ID) int {
	if u == v {
		if g.HasNode(u) {
			return 0
		}
		return -1
	}
	dist := map[ID]int{u: 0}
	frontier := []ID{u}
	for len(frontier) > 0 {
		var next []ID
		for _, w := range frontier {
			d := dist[w]
			for x := range g.adj[w] {
				if x == v {
					return d + 1
				}
				if _, seen := dist[x]; !seen {
					dist[x] = d + 1
					//chordalvet:ignore maporder frontier order does not affect the returned distance
					next = append(next, x)
				}
			}
		}
		frontier = next
	}
	return -1
}

// Ball returns the closed distance-r neighborhood Γ^r[v] in increasing ID
// order: all nodes at distance at most r from v.
func (g *Graph) Ball(v ID, r int) []ID {
	dist := map[ID]int{v: 0}
	frontier := []ID{v}
	for step := 0; step < r && len(frontier) > 0; step++ {
		var next []ID
		for _, w := range frontier {
			for u := range g.adj[w] {
				if _, seen := dist[u]; !seen {
					dist[u] = step + 1
					//chordalvet:ignore maporder frontier order does not affect the ball: members are collected from the map and sorted below
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	out := make([]ID, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Components returns the connected components of g, each sorted by ID,
// ordered by their smallest node ID.
func (g *Graph) Components() [][]ID {
	seen := make(map[ID]struct{}, len(g.adj))
	var comps [][]ID
	for _, start := range g.Nodes() {
		if _, ok := seen[start]; ok {
			continue
		}
		comp := []ID{start}
		seen[start] = struct{}{}
		for i := 0; i < len(comp); i++ {
			for u := range g.adj[comp[i]] {
				if _, ok := seen[u]; !ok {
					seen[u] = struct{}{}
					comp = append(comp, u)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Diameter returns the maximum eccentricity over all nodes, computed per
// connected component (the largest component diameter). Returns 0 for
// graphs with at most one node.
func (g *Graph) Diameter() int {
	max := 0
	for v := range g.adj {
		for _, d := range g.BFSDistances(v) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for v, nb := range g.adj {
		hnb, ok := h.adj[v]
		if !ok || len(nb) != len(hnb) {
			return false
		}
		for u := range nb {
			if _, ok := hnb[u]; !ok {
				return false
			}
		}
	}
	return true
}

// String renders the graph as "n=<nodes> m=<edges> {u-v, ...}" for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d {", g.NumNodes(), g.NumEdges())
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	b.WriteString("}")
	return b.String()
}

// Degeneracy returns the graph's degeneracy d (every subgraph has a node
// of degree ≤ d) and a degeneracy ordering (repeatedly removing a
// minimum-degree node). Chordal graphs satisfy degeneracy = ω − 1.
func (g *Graph) Degeneracy() (int, []ID) {
	work := g.Clone()
	order := make([]ID, 0, g.NumNodes())
	degeneracy := 0
	for work.NumNodes() > 0 {
		var best ID
		bestDeg := 1 << 30
		for _, v := range work.Nodes() {
			if d := work.Degree(v); d < bestDeg {
				best = v
				bestDeg = d
			}
		}
		if bestDeg > degeneracy {
			degeneracy = bestDeg
		}
		order = append(order, best)
		work.RemoveNode(best)
	}
	return degeneracy, order
}
