package interval

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Recognize tests whether g is an interval graph and, if so, constructs a
// consecutive arrangement of its maximal cliques (a clique path) and an
// interval model realizing g.
//
// Method (Gilmore–Hoffman): g is interval iff it is chordal and its
// complement has a transitive orientation (an interval order). We check
// chordality, transitively orient the complement by Golumbic-style
// forcing, order the maximal cliques (the maximal antichains of the
// order) by the orientation, and certify the result with
// ValidCliquePath — so any internal misstep surfaces as a clean
// "not an interval graph" error rather than a wrong model.
//
// The complement is materialized as bitsets, so this is intended for
// graphs up to a few thousand nodes.
func Recognize(g *graph.Graph) ([]graph.Set, []gen.Interval, error) {
	if g.NumNodes() == 0 {
		return nil, nil, nil
	}
	cliques, err := chordal.MaximalCliques(g)
	if err != nil {
		return nil, nil, fmt.Errorf("interval recognition: %w", err)
	}
	nodes := g.Nodes()
	idx := make(map[graph.ID]int, len(nodes))
	for i, v := range nodes {
		idx[v] = i
	}
	comp := newBitGraph(len(nodes))
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) {
				comp.addEdge(i, j)
			}
		}
	}
	orient, err := transitiveOrient(comp)
	if err != nil {
		return nil, nil, fmt.Errorf("interval recognition: %w", err)
	}
	path, err := orderCliques(g, cliques, orient, idx)
	if err != nil {
		return nil, nil, fmt.Errorf("interval recognition: %w", err)
	}
	// Certificate: the arrangement must be a valid consecutive
	// arrangement of g's maximal cliques.
	if err := ValidCliquePath(g, path); err != nil {
		return nil, nil, fmt.Errorf("not an interval graph: %w", err)
	}
	model := ModelFromCliquePath(path)
	return path, model, nil
}

// IsInterval reports whether g is an interval graph.
func IsInterval(g *graph.Graph) bool {
	_, _, err := Recognize(g)
	return err == nil
}

// bitGraph is a dense undirected graph over indices [0, n) stored as
// bitset rows.
type bitGraph struct {
	n    int
	rows [][]uint64
}

func newBitGraph(n int) *bitGraph {
	words := (n + 63) / 64
	rows := make([][]uint64, n)
	backing := make([]uint64, n*words)
	for i := range rows {
		rows[i] = backing[i*words : (i+1)*words]
	}
	return &bitGraph{n: n, rows: rows}
}

func (b *bitGraph) addEdge(i, j int) {
	b.rows[i][j/64] |= 1 << uint(j%64)
	b.rows[j][i/64] |= 1 << uint(i%64)
}

func (b *bitGraph) has(i, j int) bool {
	return b.rows[i][j/64]&(1<<uint(j%64)) != 0
}

// forEachNeighbor iterates the set bits of row i, lowest first.
func (b *bitGraph) forEachNeighbor(i int, fn func(j int)) {
	for w, word := range b.rows[i] {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// transitiveOrient computes a transitive orientation of the (undirected)
// graph by implication-class forcing: orienting a→b forces a→c whenever
// ac is an edge but bc is not, and forces c→b whenever cb is an edge but
// ca is not. If forcing ever demands both directions of an edge, the
// graph is not a comparability graph. The result maps ordered index
// pairs: orient[i*n+j] = +1 when i→j.
//
// As in Golumbic's algorithm, a graph that survives forcing without
// contradiction may still fail transitivity; callers certify the final
// product (here via ValidCliquePath) instead of an O(n³) check.
func transitiveOrient(b *bitGraph) ([]int8, error) {
	n := b.n
	orient := make([]int8, n*n)
	set := func(i, j int) error {
		switch orient[i*n+j] {
		case 1:
			return nil
		case -1:
			return fmt.Errorf("complement is not a comparability graph")
		}
		orient[i*n+j] = 1
		orient[j*n+i] = -1
		return nil
	}
	var queue [][2]int
	push := func(i, j int) error {
		if orient[i*n+j] == 1 {
			return nil
		}
		if err := set(i, j); err != nil {
			return err
		}
		queue = append(queue, [2]int{i, j})
		return nil
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !b.has(i, j) || orient[i*n+j] != 0 {
				continue
			}
			// Seed a new implication class.
			if err := push(i, j); err != nil {
				return nil, err
			}
			for len(queue) > 0 {
				e := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				a, c := e[0], e[1]
				var ferr error
				// a→c forces a→x for edges ax with cx missing,
				// and x→c for edges xc with xa missing.
				b.forEachNeighbor(a, func(x int) {
					if ferr != nil || x == c {
						return
					}
					if !b.has(c, x) {
						ferr = push(a, x)
					}
				})
				if ferr != nil {
					return nil, ferr
				}
				b.forEachNeighbor(c, func(x int) {
					if ferr != nil || x == a {
						return
					}
					if !b.has(a, x) {
						ferr = push(x, c)
					}
				})
				if ferr != nil {
					return nil, ferr
				}
			}
		}
	}
	return orient, nil
}

// orderCliques sorts the maximal cliques by the interval order the
// orientation induces: clique A precedes B when some a ∈ A\B, b ∈ B\A has
// a→b in the oriented complement (a's interval lies entirely left of
// b's). For interval graphs this comparison is consistent across all
// witness pairs; the final certificate catches any inconsistency.
func orderCliques(g *graph.Graph, cliques []graph.Set, orient []int8, idx map[graph.ID]int) ([]graph.Set, error) {
	n := len(idx)
	precedes := func(a, b graph.Set) int {
		diffA := a.Minus(b)
		diffB := b.Minus(a)
		for _, u := range diffA {
			for _, v := range diffB {
				if g.HasEdge(u, v) {
					continue
				}
				switch orient[idx[u]*n+idx[v]] {
				case 1:
					return -1
				case -1:
					return 1
				}
			}
		}
		return 0
	}
	path := make([]graph.Set, len(cliques))
	copy(path, cliques)
	sort.SliceStable(path, func(i, j int) bool {
		return precedes(path[i], path[j]) < 0
	})
	// sort.SliceStable only guarantees a total order if precedes is
	// consistent; for interval graphs it is, and ValidCliquePath is the
	// final arbiter. Insertion-sort style repair for the common case of
	// incomparable ties being placed between their neighbors:
	for swept := true; swept; {
		swept = false
		for i := 0; i+1 < len(path); i++ {
			if precedes(path[i+1], path[i]) < 0 {
				path[i], path[i+1] = path[i+1], path[i]
				swept = true
			}
		}
	}
	return path, nil
}
