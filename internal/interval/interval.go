// Package interval implements the interval-graph substrate the paper's
// layers reduce to: interval models, clique paths (consecutive
// arrangements of maximal cliques), LexBFS and the 3-sweep umbrella
// ordering for proper interval graphs, and the dominated-vertex reduction
// from Algorithm 5.
package interval

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

// CliquePathFromModel computes the maximal cliques of the interval graph
// defined by the model, in left-to-right order (a consecutive
// arrangement): sweeping the line, a maximal clique forms just before each
// point where some interval ends while another is still open.
func CliquePathFromModel(ivs []gen.Interval) []graph.Set {
	if len(ivs) == 0 {
		return nil
	}
	type event struct {
		pos   float64
		start bool
		node  graph.ID
	}
	events := make([]event, 0, 2*len(ivs))
	for _, iv := range ivs {
		events = append(events, event{iv.Lo, true, iv.Node}, event{iv.Hi, false, iv.Node})
	}
	sort.Slice(events, func(i, j int) bool {
		switch {
		case events[i].pos < events[j].pos:
			return true
		case events[j].pos < events[i].pos:
			return false
		}
		// Closed intervals: starts before ends at the same point, so
		// touching intervals count as intersecting.
		if events[i].start != events[j].start {
			return events[i].start
		}
		return events[i].node < events[j].node
	})
	active := make(map[graph.ID]bool)
	var cliques []graph.Set
	sinceLastStart := false // an interval opened since the last emitted clique
	for _, ev := range events {
		if ev.start {
			active[ev.node] = true
			sinceLastStart = true
			continue
		}
		if sinceLastStart {
			// The active set just before this end event is a maximal clique.
			members := make([]graph.ID, 0, len(active))
			for v := range active {
				members = append(members, v)
			}
			cliques = append(cliques, graph.NewSet(members...))
			sinceLastStart = false
		}
		delete(active, ev.node)
	}
	return cliques
}

// ModelFromCliquePath converts a consecutive arrangement of maximal
// cliques into an interval model over clique indices: node v becomes the
// interval [first, last] of positions of cliques containing v. If the
// arrangement has the consecutive property, the resulting model represents
// exactly the original graph.
func ModelFromCliquePath(path []graph.Set) []gen.Interval {
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
	nodes := make([]graph.ID, 0, len(first))
	for v := range first {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	out := make([]gen.Interval, len(nodes))
	for i, v := range nodes {
		out[i] = gen.Interval{Node: v, Lo: float64(first[v]), Hi: float64(last[v])}
	}
	return out
}

// ValidCliquePath checks that path is a consecutive arrangement of the
// maximal cliques of g: every clique is a maximal clique of g, every node
// of g occurs in a consecutive run of cliques, and the union of clique
// edges is exactly E(g).
func ValidCliquePath(g *graph.Graph, path []graph.Set) error {
	first := make(map[graph.ID]int)
	last := make(map[graph.ID]int)
	count := make(map[graph.ID]int)
	for i, c := range path {
		if !g.IsClique(c) {
			return fmt.Errorf("path member %v is not a clique", c)
		}
		for _, v := range c {
			if _, ok := first[v]; !ok {
				first[v] = i
			}
			last[v] = i
			count[v]++
		}
	}
	for _, v := range g.Nodes() {
		if _, ok := first[v]; !ok {
			return fmt.Errorf("node %d missing from clique path", v)
		}
		if count[v] != last[v]-first[v]+1 {
			return fmt.Errorf("node %d's cliques are not consecutive", v)
		}
	}
	for _, e := range g.Edges() {
		covered := false
		for _, c := range path {
			if c.Contains(e[0]) && c.Contains(e[1]) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("edge %v not covered by the clique path", e)
		}
	}
	// Each clique maximal: no outside vertex adjacent to all members.
	for _, c := range path {
		for _, v := range g.Nodes() {
			if c.Contains(v) {
				continue
			}
			all := true
			for _, u := range c {
				if !g.HasEdge(v, u) {
					all = false
					break
				}
			}
			if all {
				return fmt.Errorf("clique %v is not maximal (extendable by %d)", c, v)
			}
		}
	}
	return nil
}

// RestrictCliquePath restricts a consecutive arrangement to a node
// subset: each clique is intersected with keep, empty restrictions are
// dropped, and restrictions subsumed by a neighbor are removed (iterated
// to a fixpoint). The result is a consecutive arrangement of the maximal
// cliques of the induced subgraph.
func RestrictCliquePath(path []graph.Set, keep func(graph.ID) bool) []graph.Set {
	var out []graph.Set
	for _, c := range path {
		var d graph.Set
		for _, v := range c {
			if keep(v) {
				d = append(d, v)
			}
		}
		if len(d) > 0 {
			out = append(out, d)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(out); i++ {
			switch {
			case out[i].SubsetOf(out[i+1]):
				out = append(out[:i], out[i+1:]...)
				changed = true
			case out[i+1].SubsetOf(out[i]):
				out = append(out[:i+1], out[i+2:]...)
				changed = true
			}
			if changed {
				break
			}
		}
	}
	return out
}

// Dominated returns the nodes v of g for which some node u has
// Γ[v] ⊋ Γ[u] — the nodes Algorithm 5 discards. Removing them leaves a
// proper interval graph whose independence number equals α(g).
func Dominated(g *graph.Graph) graph.Set {
	nodes := g.Nodes()
	closed := make(map[graph.ID]graph.Set, len(nodes))
	for _, v := range nodes {
		closed[v] = graph.NewSet(g.ClosedNeighbors(v)...)
	}
	var out graph.Set
	for _, v := range nodes {
		// Any strictly dominating witness u must be a neighbor of v (or v
		// itself, impossible): Γ[u] ⊆ Γ[v] and u ∈ Γ[u] imply u ∈ Γ[v].
		for _, u := range g.ClosedNeighbors(v) {
			if u != v && closed[u].ProperSubsetOf(closed[v]) {
				out = append(out, v)
				break
			}
		}
	}
	return graph.NewSet(out...)
}

// RemoveDominated returns g with all dominated nodes removed (a proper
// interval graph when g is interval).
func RemoveDominated(g *graph.Graph) *graph.Graph {
	out := g.Clone()
	out.RemoveNodes(Dominated(g))
	return out
}

// Diameter returns the diameter of the interval graph g — the largest
// eccentricity within any connected component, 0 for graphs with at
// most one node, exactly graph.Diameter's value — given path, a
// clique-path model of g or of a graph g is an induced subgraph of:
// each node's cliques are consecutive and two nodes are adjacent
// exactly when they share a clique (maximality is not needed; nodes
// outside g are ignored). It runs one BFS per component, from the node
// whose last clique comes first, so the cost is O(n + m + |path|)
// instead of a BFS from every node.
//
// Why one BFS suffices: let u be a node of the component whose interval
// ends first, and x, y two nodes whose distance realizes the diameter,
// x's interval ending no later than y's. If x ≁ y, any shortest u–y
// path covers the point where x's interval ends, and some path node
// other than u contains it — were u the only one, u's successor on the
// path would contain it too, since its interval meets u's and ends no
// earlier. That node is x or a neighbor of x and is strictly closer to
// y than u, so dist(x, y) ≤ dist(u, y) ≤ ecc(u).
func Diameter(g *graph.Graph, path []graph.Set) int {
	// Nodes by ascending last occurrence: walking the path backwards
	// meets each node first at its last clique.
	order := make([]graph.ID, 0, g.NumNodes())
	seen := make(map[graph.ID]bool, g.NumNodes())
	for i := len(path) - 1; i >= 0; i-- {
		for _, v := range path[i] {
			if !seen[v] && g.HasNode(v) {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	slices.Reverse(order)
	dist := make(map[graph.ID]int, g.NumNodes())
	var queue []graph.ID
	diam := 0
	for _, src := range order {
		if _, done := dist[src]; done {
			continue
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			d := dist[v] + 1
			g.ForEachNeighbor(v, func(u graph.ID) {
				if _, ok := dist[u]; !ok {
					dist[u] = d
					queue = append(queue, u)
				}
			})
		}
		if d := dist[queue[len(queue)-1]]; d > diam {
			diam = d
		}
	}
	return diam
}
