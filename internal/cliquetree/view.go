package cliquetree

import (
	"fmt"
	"sort"

	"repro/internal/chordal"
	"repro/internal/graph"
)

// MaximalCliquesContaining returns the maximal cliques of g that contain
// node u, computed purely from u's closed neighborhood: a clique C ∋ u is
// maximal in g iff it is maximal in g[Γ[u]] (any witness of
// non-maximality is adjacent to u and hence inside Γ[u]).
func MaximalCliquesContaining(g *graph.Graph, u graph.ID) ([]graph.Set, error) {
	nbhd := g.InducedSubgraph(g.ClosedNeighbors(u))
	all, err := chordal.MaximalCliques(nbhd)
	if err != nil {
		return nil, fmt.Errorf("neighborhood of %d: %w", u, err)
	}
	var out []graph.Set
	for _, c := range all {
		if c.Contains(u) {
			out = append(out, c)
		}
	}
	return out, nil
}

// LocalView is the partial picture of the global clique forest a network
// node assembles from its distance-d ball (paper Section 3, Figures 3–4):
// the cliques containing any node at distance at most d−1 from the
// center, plus, for each such node u, the edges of T(u) obtained as the
// unique maximum-weight spanning forest of W_G restricted to φ(u)
// (Lemma 2).
type LocalView struct {
	Center  graph.ID
	Cliques []graph.Set
	Edges   [][2]int // index pairs into Cliques, A < B
}

// ComputeLocalView builds the local view of the clique forest from a ball
// graph: ball must be the subgraph of the global graph induced by
// Γ^d[center]. Nodes at distance at most d−1 within the ball have their
// full closed neighborhood (and all edges among it) inside the ball, so
// their φ(u) and T(u) are computed exactly.
func ComputeLocalView(ball *graph.Graph, center graph.ID, d int) (*LocalView, error) {
	dist := ball.BFSDistances(center)
	index := make(map[string]int)
	var cliques []graph.Set
	addClique := func(c graph.Set) int {
		key := cliqueKey(c)
		if i, ok := index[key]; ok {
			return i
		}
		index[key] = len(cliques)
		cliques = append(cliques, c)
		return len(cliques) - 1
	}
	edgeSet := make(map[[2]int]bool)

	inner := make([]graph.ID, 0, len(dist))
	for u, du := range dist {
		if du <= d-1 {
			inner = append(inner, u)
		}
	}
	sort.Slice(inner, func(i, j int) bool { return inner[i] < inner[j] })

	for _, u := range inner {
		phi, err := MaximalCliquesContaining(ball, u)
		if err != nil {
			return nil, fmt.Errorf("local view of %d: %w", center, err)
		}
		localIdx := make([]int, len(phi))
		for i, c := range phi {
			localIdx[i] = addClique(c)
		}
		// T(u): unique MWSF of W_G restricted to φ(u) (Lemma 2).
		for _, e := range MaxWeightSpanningForest(phi, WCIG(phi)) {
			a, b := localIdx[e[0]], localIdx[e[1]]
			if a > b {
				a, b = b, a
			}
			edgeSet[[2]int{a, b}] = true
		}
	}

	edges := make([][2]int, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return &LocalView{Center: center, Cliques: cliques, Edges: edges}, nil
}

func cliqueKey(c graph.Set) string {
	b := make([]byte, 0, len(c)*4)
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// FindClique returns the index of the clique with exactly the given
// members, or -1.
func (lv *LocalView) FindClique(c graph.Set) int {
	for i, x := range lv.Cliques {
		if x.Equal(c) {
			return i
		}
	}
	return -1
}

// ConsistentWith checks that the view is a sub-picture of the global
// forest: every view clique is a global maximal clique and every view
// edge is a global forest edge. It returns an error describing the first
// inconsistency.
func (lv *LocalView) ConsistentWith(global *Forest) error {
	toGlobal := make([]int, len(lv.Cliques))
	for i, c := range lv.Cliques {
		toGlobal[i] = -1
		for j, gc := range global.cliques {
			if c.Equal(gc) {
				toGlobal[i] = j
				break
			}
		}
		if toGlobal[i] == -1 {
			return fmt.Errorf("view clique %v is not a global maximal clique", c)
		}
	}
	for _, e := range lv.Edges {
		if !global.HasEdge(toGlobal[e[0]], toGlobal[e[1]]) {
			return fmt.Errorf("view edge %v-%v is not a global forest edge",
				lv.Cliques[e[0]], lv.Cliques[e[1]])
		}
	}
	return nil
}
