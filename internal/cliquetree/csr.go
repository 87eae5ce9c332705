package cliquetree

import (
	"fmt"
	"sort"

	"repro/internal/chordal"
	"repro/internal/graph"
)

// This file is the snapshot-index CSR counterpart of cliquetree.go: a
// reusable Builder that computes the canonical clique forest of the
// alive-masked subgraph of a graph.Indexed snapshot without touching
// map-backed structures. The peeling process rebuilds the forest once
// per iteration on a shrinking vertex set, so everything here works over
// an alive mask and recycles its scratch between builds.
//
// Equivalence with the map-backed path (chordal.MaximalCliques +
// FromCliques) is exact, not approximate:
//
//   - snapshot index order coincides with ID order (graph.Indexed), so
//     every ID-based tie-break below is an index-based tie-break;
//   - the elimination order and its PEO check come from chordal.Elim,
//     whose MCS pops (max weight, then min index = min ID) like
//     chordal.MCS and whose Tarjan–Yannakakis check accepts exactly the
//     orderings chordal.IsPEO accepts;
//   - candidate cliques, their maximality filter, the WCIG weights, the
//     canonical edge order, and Kruskal's scan are literal translations,
//     so the resulting clique list (in PEO-position order) and forest
//     edges are identical to the seed's.

// CSRForest is a clique forest over snapshot indices: cliques in
// PEO-position order with ascending member rows, the forest adjacency
// with ascending neighbor rows, and the phi table (clique ids per node,
// ascending). A CSRForest is rebuilt in place by Builder.Build; all
// slices are views into storage reused across builds.
type CSRForest struct {
	NumCliques int
	cliquePtr  []int32
	cliqueMem  []int32
	adjPtr     []int32
	adj        []int32
	phiPtr     []int32 // indexed by snapshot index; rows valid for alive nodes only
	phi        []int32
}

// Clique returns the ascending member indices of clique c.
func (f *CSRForest) Clique(c int32) []int32 {
	return f.cliqueMem[f.cliquePtr[c]:f.cliquePtr[c+1]]
}

// Nbrs returns the ascending forest neighbors of clique c.
func (f *CSRForest) Nbrs(c int32) []int32 { return f.adj[f.adjPtr[c]:f.adjPtr[c+1]] }

// Deg returns the forest degree of clique c.
func (f *CSRForest) Deg(c int32) int { return int(f.adjPtr[c+1] - f.adjPtr[c]) }

// PhiRow returns the ascending clique ids containing the node at
// snapshot index v. Only valid for nodes alive in the build.
func (f *CSRForest) PhiRow(v int32) []int32 { return f.phi[f.phiPtr[v]:f.phiPtr[v+1]] }

// wedge is a WCIG edge between cliques a < b.
type wedge struct {
	a, b, w int32
}

// Builder computes CSR clique forests over one snapshot, reusing all
// working storage between builds. Not safe for concurrent use.
type Builder struct {
	ix   *graph.Indexed
	elim chordal.Elim // the elimination order and its PEO check

	mark  []bool // generic per-index marks, clean between uses
	cand  []int32
	pairs []uint64
	edges []wedge

	ufParent []int32
	ufRank   []int8
	accepted [][2]int32
	degBuf   []int32
}

// NewBuilder returns a Builder over the given snapshot.
func NewBuilder(ix *graph.Indexed) *Builder { return &Builder{ix: ix} }

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Build computes the clique forest of the subgraph induced by the alive
// mask (nil = all alive; nAlive must match) into out. It returns the
// seed-identical error when that subgraph is not chordal.
func (b *Builder) Build(alive []bool, nAlive int, out *CSRForest) error {
	ix := b.ix
	n := ix.NumNodes()
	if cap(b.mark) < n {
		b.mark = make([]bool, n)
	}
	b.mark = b.mark[:n]

	// The elimination order: MCS over the alive rows, verified to be a
	// PEO (it is one iff the alive subgraph is chordal).
	members := growInt32(b.cand, n)[:0]
	for i := 0; i < n; i++ {
		if alive == nil || alive[i] {
			members = append(members, int32(i))
		}
	}
	b.cand = members
	_, rowPtr, cols := ix.CSR()
	order := b.elim.MCS(rowPtr, cols, members)
	if err := b.elim.CheckPEO(); err != nil {
		return fmt.Errorf("clique forest: %w", err)
	}
	pos := b.elim.Positions()

	// Maximal cliques in PEO-position order: C_i = {v_i} ∪ Γ_later(v_i),
	// kept iff no earlier neighbor of v_i is adjacent to all of C_i
	// (counted against marks instead of per-pair HasEdge probes).
	out.cliquePtr = append(out.cliquePtr[:0], 0)
	out.cliqueMem = out.cliqueMem[:0]
	for i := 0; i < nAlive; i++ {
		v := order[i]
		cand := b.cand[:0]
		inserted := false
		for _, u := range ix.NeighborIndices(int(v)) {
			if (alive != nil && !alive[u]) || pos[u] <= int32(i) {
				continue
			}
			if !inserted && v < u {
				cand = append(cand, v)
				inserted = true
			}
			cand = append(cand, u)
		}
		if !inserted {
			cand = append(cand, v)
		}
		b.cand = cand
		for _, w := range cand {
			b.mark[w] = true
		}
		maximal := true
		for _, u := range ix.NeighborIndices(int(v)) {
			if (alive != nil && !alive[u]) || pos[u] >= int32(i) {
				continue
			}
			cnt := 0
			for _, w := range ix.NeighborIndices(int(u)) {
				if b.mark[w] {
					cnt++
				}
			}
			if cnt == len(cand) {
				maximal = false
				break
			}
		}
		for _, w := range cand {
			b.mark[w] = false
		}
		if maximal {
			out.cliqueMem = append(out.cliqueMem, cand...)
			out.cliquePtr = append(out.cliquePtr, int32(len(out.cliqueMem)))
		}
	}
	out.NumCliques = len(out.cliquePtr) - 1

	// Phi CSR: clique ids per alive node, ascending (cliques are scanned
	// in increasing id, so counting-sort fill preserves that order). The
	// fill advances phiPtr[v] from v's start to its end, which is v+1's
	// start, so one shift restores the row pointers.
	out.phiPtr = growInt32(out.phiPtr, n+1)
	for i := range out.phiPtr {
		out.phiPtr[i] = 0
	}
	for _, v := range out.cliqueMem {
		out.phiPtr[v+1]++
	}
	for i := 0; i < n; i++ {
		out.phiPtr[i+1] += out.phiPtr[i]
	}
	out.phi = growInt32(out.phi, len(out.cliqueMem))
	for c := 0; c < out.NumCliques; c++ {
		for _, v := range out.Clique(int32(c)) {
			out.phi[out.phiPtr[v]] = int32(c)
			out.phiPtr[v]++
		}
	}
	copy(out.phiPtr[1:], out.phiPtr[:n])
	out.phiPtr[0] = 0

	// WCIG: every pair of cliques sharing a node, weighted by shared
	// count. Pairs are packed (a<<32|b) with a<b (phi rows ascend), so a
	// sort + run-length pass yields the edge list already in (A,B) order.
	pairs := b.pairs[:0]
	for i := 0; i < nAlive; i++ {
		row := out.PhiRow(order[i])
		for x := 0; x < len(row); x++ {
			for y := x + 1; y < len(row); y++ {
				pairs = append(pairs, uint64(row[x])<<32|uint64(row[y]))
			}
		}
	}
	sortUint64(pairs)
	b.pairs = pairs
	edges := b.edges[:0]
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		edges = append(edges, wedge{a: int32(pairs[i] >> 32), b: int32(pairs[i] & 0xffffffff), w: int32(j - i)})
		i = j
	}
	b.edges = edges

	// Canonical maximum-weight spanning forest: Kruskal over the edges
	// in descending canonical order. The order is strict and total, so
	// the unstable sort still has a unique result.
	sort.Slice(edges, func(i, j int) bool { return b.canonicalLess(out, edges[j], edges[i]) })
	nc := out.NumCliques
	b.ufParent = growInt32(b.ufParent, nc)
	if cap(b.ufRank) < nc {
		b.ufRank = make([]int8, nc)
	}
	b.ufRank = b.ufRank[:nc]
	for i := 0; i < nc; i++ {
		b.ufParent[i] = int32(i)
		b.ufRank[i] = 0
	}
	accepted := b.accepted[:0]
	for _, e := range edges {
		if b.union(e.a, e.b) {
			accepted = append(accepted, [2]int32{e.a, e.b})
		}
	}
	sort.Slice(accepted, func(i, j int) bool {
		if accepted[i][0] != accepted[j][0] {
			return accepted[i][0] < accepted[j][0]
		}
		return accepted[i][1] < accepted[j][1]
	})
	b.accepted = accepted

	// Forest adjacency CSR. Scanning the (A,B)-sorted accepted edges
	// appends every row's smaller neighbors (as B-side entries, ascending
	// A) before its larger ones (as A-side entries, ascending B), so each
	// row comes out sorted without a per-row sort.
	deg := growInt32(b.degBuf, nc)
	for i := 0; i < nc; i++ {
		deg[i] = 0
	}
	for _, e := range accepted {
		deg[e[0]]++
		deg[e[1]]++
	}
	out.adjPtr = growInt32(out.adjPtr, nc+1)
	out.adjPtr[0] = 0
	for i := 0; i < nc; i++ {
		out.adjPtr[i+1] = out.adjPtr[i] + deg[i]
	}
	out.adj = growInt32(out.adj, int(out.adjPtr[nc]))
	for i := 0; i < nc; i++ {
		deg[i] = 0
	}
	b.degBuf = deg
	for _, e := range accepted {
		out.adj[out.adjPtr[e[1]]+deg[e[1]]] = e[0]
		deg[e[1]]++
	}
	for _, e := range accepted {
		out.adj[out.adjPtr[e[0]]+deg[e[0]]] = e[1]
		deg[e[0]]++
	}
	return nil
}

// compareClique orders cliques by their σ-words: member-wise, shorter
// first on a shared prefix — identical to graph.Set.Compare because
// index order is ID order.
func compareClique(f *CSRForest, x, y int32) int {
	a, b := f.Clique(x), f.Clique(y)
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// canonicalLess is CanonicalLess on CSR cliques: weight first, then the
// lexicographically smaller σ-words, then the larger ones.
func (b *Builder) canonicalLess(f *CSRForest, e, g wedge) bool {
	if e.w != g.w {
		return e.w < g.w
	}
	eLo, eHi := e.a, e.b
	if compareClique(f, eLo, eHi) > 0 {
		eLo, eHi = eHi, eLo
	}
	gLo, gHi := g.a, g.b
	if compareClique(f, gLo, gHi) > 0 {
		gLo, gHi = gHi, gLo
	}
	if c := compareClique(f, eLo, gLo); c != 0 {
		return c < 0
	}
	return compareClique(f, eHi, gHi) < 0
}

func (b *Builder) find(x int32) int32 {
	for b.ufParent[x] != x {
		b.ufParent[x] = b.ufParent[b.ufParent[x]]
		x = b.ufParent[x]
	}
	return x
}

func (b *Builder) union(x, y int32) bool {
	rx, ry := b.find(x), b.find(y)
	if rx == ry {
		return false
	}
	if b.ufRank[rx] < b.ufRank[ry] {
		rx, ry = ry, rx
	}
	b.ufParent[ry] = rx
	if b.ufRank[rx] == b.ufRank[ry] {
		b.ufRank[rx]++
	}
	return true
}

// ToForest materializes a CSRForest as a map-backed Forest over original
// IDs, identical to what New would have produced on the alive subgraph.
func ToForest(f *CSRForest, ids []graph.ID) *Forest {
	out := &Forest{
		cliques: make([]graph.Set, f.NumCliques),
		adj:     make([][]int, f.NumCliques),
		phi:     make(map[graph.ID][]int),
	}
	for c := 0; c < f.NumCliques; c++ {
		row := f.Clique(int32(c))
		set := make(graph.Set, len(row))
		for i, v := range row {
			set[i] = ids[v] // ascending indices → ascending IDs: a valid Set
		}
		out.cliques[c] = set
	}
	for i, c := range out.cliques {
		for _, v := range c {
			out.phi[v] = append(out.phi[v], i)
		}
	}
	for c := 0; c < f.NumCliques; c++ {
		row := f.Nbrs(int32(c))
		if len(row) == 0 {
			continue
		}
		adj := make([]int, len(row))
		for i, nb := range row {
			adj[i] = int(nb)
		}
		out.adj[c] = adj
	}
	return out
}

// sortUint64 sorts in place (radix by byte: the pair lists are large and
// uniformly distributed, so this beats comparison sorting).
func sortUint64(s []uint64) {
	if len(s) < 64 {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return
	}
	buf := make([]uint64, len(s))
	var count [256]int
	src, dst := s, buf
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, v := range src {
			count[(v>>shift)&0xff]++
		}
		total := 0
		for i, c := range count {
			count[i] = total
			total += c
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	// 8 passes: src has rotated back to s.
	_ = dst
}
