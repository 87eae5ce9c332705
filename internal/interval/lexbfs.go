package interval

import (
	"fmt"

	"repro/internal/graph"
)

// LexBFS returns a lexicographic breadth-first search ordering of the
// connected component of start. Ties are broken by preferring the vertex
// appearing latest in tieBreak (the LBFS↑ rule); with a nil tieBreak the
// smallest ID wins.
func LexBFS(g *graph.Graph, start graph.ID, tieBreak []graph.ID) []graph.ID {
	pref := make(map[graph.ID]int)
	for i, v := range tieBreak {
		pref[v] = i
	}
	type entry struct {
		label []int // positions of visited neighbors, descending
	}
	labels := make(map[graph.ID]*entry)
	comp := g.Ball(start, g.NumNodes()) // nodes of start's component
	for _, v := range comp {
		labels[v] = &entry{}
	}
	var order []graph.ID
	visited := make(map[graph.ID]bool, len(comp))
	for len(order) < len(comp) {
		// Pick the unvisited vertex with the lexicographically largest
		// label; break ties by tieBreak preference, then smaller ID.
		var best graph.ID
		haveBest := false
		for _, v := range comp {
			if visited[v] {
				continue
			}
			if !haveBest || lexGreater(labels[v].label, labels[best].label) ||
				(labelsEqual(labels[v].label, labels[best].label) && preferred(v, best, pref)) {
				best = v
				haveBest = true
			}
		}
		if start != best && len(order) == 0 {
			// First pick must be start: force it.
			best = start
		}
		visited[best] = true
		pos := len(order)
		order = append(order, best)
		for _, u := range g.Neighbors(best) {
			if e, ok := labels[u]; ok && !visited[u] {
				e.label = append(e.label, -pos) // store -pos so ascending sort keeps descending positions first
			}
		}
	}
	return order
}

func lexGreater(a, b []int) bool {
	// Labels store -position appended in increasing visit order, which is
	// already descending lexicographic significance: earlier visits have
	// smaller -pos... positions ascend, so -pos descends; lexicographic
	// comparison on the stored sequence with larger meaning earlier
	// neighbor. A label is greater if at the first difference its entry
	// is greater (i.e. the neighbor was visited earlier).
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return len(a) > len(b)
}

func labelsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func preferred(v, best graph.ID, pref map[graph.ID]int) bool {
	pv, okv := pref[v]
	pb, okb := pref[best]
	switch {
	case okv && okb:
		return pv > pb // later in previous sweep wins
	case okv != okb:
		return okv
	default:
		return v < best
	}
}

// UmbrellaOrder computes a straight enumeration (umbrella ordering) of a
// proper interval graph using Corneil's 3-sweep LexBFS, processing each
// connected component separately, and verifies the result. An ordering
// v_1..v_n is an umbrella ordering iff every closed neighborhood is a
// consecutive run, which holds for some ordering iff g is a proper
// interval graph; a verification failure therefore reports that g is not
// proper interval.
func UmbrellaOrder(g *graph.Graph) ([]graph.ID, error) {
	var out []graph.ID
	seen := make(map[graph.ID]bool, g.NumNodes())
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		sweep1 := LexBFS(g, start, nil)
		sweep2 := LexBFS(g, sweep1[len(sweep1)-1], sweep1)
		sweep3 := LexBFS(g, sweep2[len(sweep2)-1], sweep2)
		if err := checkUmbrella(g, sweep3); err != nil {
			return nil, fmt.Errorf("not a proper interval graph: %w", err)
		}
		for _, v := range sweep3 {
			seen[v] = true
		}
		out = append(out, sweep3...)
	}
	return out, nil
}

func checkUmbrella(g *graph.Graph, order []graph.ID) error {
	pos := make(map[graph.ID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		lo, hi := i, i
		for _, u := range g.Neighbors(v) {
			p, ok := pos[u]
			if !ok {
				continue // different component
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		for p := lo; p <= hi; p++ {
			if p != i && !g.HasEdge(v, order[p]) {
				return fmt.Errorf("N[%d] is not consecutive: misses %d", v, order[p])
			}
		}
	}
	return nil
}
