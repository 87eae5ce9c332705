package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/colorreduce"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/peel"
)

// The map-backed post-peel stages, kept as the oracles of the
// index-space kernels in colint.go, correct.go and mis_components.go.
// They read a peel record by node ID, through the peel's snapshot ix.

// idLayers is the peel's NodeLayer keyed by node ID, without the nodes
// never peeled.
func idLayers(peeled *peel.Result) map[graph.ID]int {
	layerOf := make(map[graph.ID]int)
	for x, l := range peeled.NodeLayer {
		if l > 0 {
			layerOf[peeled.Snapshot.IDOf(x)] = int(l)
		}
	}
	return layerOf
}

// fullPath is a peeled path flanked by its attachment cliques, by node
// ID: the strip's clique path per Lemma 8 before restriction.
func fullPath(ix *graph.Indexed, rec *peel.PathRecord) []graph.Set {
	full := make([]graph.Set, 0, len(rec.Cliques)+2)
	if rec.AttachStart != nil {
		full = append(full, ix.IDSet(rec.AttachStart))
	}
	for _, c := range rec.Cliques {
		full = append(full, ix.IDSet(c))
	}
	if rec.AttachEnd != nil {
		full = append(full, ix.IDSet(rec.AttachEnd))
	}
	return full
}

// correctPath resolves the conflicts of one peeled path against its
// higher-layer neighborhood W′ (Lemma 10): W′ and the far interior of W
// stay fixed, the zone within distance k+3 of W′ is recolored with the
// global palette.
func correctPath(g *graph.Graph, ix *graph.Indexed, rec *peel.PathRecord, layerIndex int, layerOf map[graph.ID]int, k int, out *ChordalColoring) error {
	nodes := ix.IDSet(rec.Nodes)
	inW := make(map[graph.ID]bool, len(nodes))
	for _, v := range nodes {
		inW[v] = true
	}
	var wPrime graph.Set
	seen := make(map[graph.ID]bool)
	for _, v := range nodes {
		for _, u := range g.Neighbors(v) {
			if !inW[u] && !seen[u] && layerOf[u] > layerIndex {
				seen[u] = true
				wPrime = append(wPrime, u)
			}
		}
	}
	if len(wPrime) == 0 {
		return nil
	}
	wPrime = graph.NewSet(wPrime...)

	stripNodes := graph.NewSet(append(nodes, wPrime...)...)
	strip := g.InducedSubgraph(stripNodes)
	// The strip's clique path per Lemma 8: the peeled path flanked by its
	// attachment cliques, restricted to the strip's nodes.
	keep := make(map[graph.ID]bool, len(stripNodes))
	for _, v := range stripNodes {
		keep[v] = true
	}
	stripPath := interval.RestrictCliquePath(fullPath(ix, rec), func(v graph.ID) bool { return keep[v] })

	zone := recolorZone(strip, wPrime, k+3)
	inZone := make(map[graph.ID]bool)
	for _, v := range zone {
		if inW[v] {
			inZone[v] = true
		}
	}
	if len(inZone) == 0 {
		return nil
	}
	fixed := make(map[graph.ID]int, len(stripNodes))
	for _, v := range stripNodes {
		if !inZone[v] {
			fixed[v] = out.Colors[v]
		}
	}
	colors, err := extendColoringOracle(strip, stripPath, fixed, out.Palette)
	if err != nil {
		return err
	}
	for v := range inZone {
		out.Colors[v] = colors[v]
	}
	return nil
}

// componentAnchor returns the attachment clique of the peeled path that
// the component touches (at most one when α(H) < d, as argued in
// Section 7.1), or nil. It walks adjacency via ForEachNeighbor, which
// reads g without populating its neighbor cache.
func componentAnchor(g *graph.Graph, h *graph.Graph, ix *graph.Indexed, rec *peel.PathRecord) graph.Set {
	touches := func(c graph.Set) bool {
		found := false
		for _, v := range h.Nodes() {
			g.ForEachNeighbor(v, func(u graph.ID) {
				if !found && c.Contains(u) {
					found = true
				}
			})
			if found {
				return true
			}
		}
		return false
	}
	for _, c := range [][]int32{rec.AttachStart, rec.AttachEnd} {
		if set := ix.IDSet(c); touches(set) {
			return set
		}
	}
	return nil
}

// colIntGraphOracle is ColIntGraph on map-backed graphs: every block and
// cut repair builds its induced subgraph and restricted clique path, and
// the anchor gaps are graph.Distance calls.
func colIntGraphOracle(g *graph.Graph, path []graph.Set, k int) (*IntervalColoring, error) {
	if k < 1 {
		return nil, fmt.Errorf("k must be >= 1, got %d", k)
	}
	res := &IntervalColoring{Colors: make(map[graph.ID]int, g.NumNodes())}
	if g.NumNodes() == 0 {
		return res, nil
	}
	omega := 0
	for _, c := range path {
		if len(c) > omega {
			omega = len(c)
		}
	}
	res.Omega = omega
	res.Palette = (k+1)*omega/k + 1

	anchors, err := selectCutsOracle(g, path, 2*k+8)
	if err != nil {
		return nil, err
	}
	cuts := anchors.Anchors
	res.Rounds += 4 // chain construction from O(1)-radius local views
	res.Rounds += anchors.Rounds

	blocks := splitBlocks(nil, len(path), cuts)
	res.Blocks = len(blocks)

	// Assign each node to the block containing its first clique, scanning
	// the positions in order; each block's nodes end up sorted by ID.
	blockNodes := make([][]graph.ID, len(blocks))
	placed := make(map[graph.ID]bool, g.NumNodes())
	b := 0
	for p, c := range path {
		for p > blocks[b][1] {
			b++
		}
		for _, v := range c {
			if !placed[v] {
				placed[v] = true
				blockNodes[b] = append(blockNodes[b], v)
			}
		}
	}

	maxBlockCost := 0
	for b := range blocks {
		nodes := blockNodes[b]
		slices.Sort(nodes)
		sub := g.InducedSubgraph(nodes)
		keep := make(map[graph.ID]bool, len(nodes))
		for _, v := range nodes {
			keep[v] = true
		}
		subPath := interval.RestrictCliquePath(path, func(v graph.ID) bool { return keep[v] })
		colors, err := extendColoringOracle(sub, subPath, nil, res.Palette)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", b, err)
		}
		for v, c := range colors {
			res.Colors[v] = c
		}
		if cost := interval.Diameter(sub, subPath) + 1; cost > maxBlockCost {
			maxBlockCost = cost
		}
	}
	res.Rounds += maxBlockCost

	if len(cuts) > 0 {
		for b := 1; b < len(blocks); b++ {
			if err := repairCut(g, path, blocks, blockNodes, b, k, res); err != nil {
				return nil, err
			}
		}
		res.Rounds += k + 5
	}

	used := make(map[int]bool)
	for _, c := range res.Colors {
		used[c] = true
	}
	res.ColorsUsed = len(used)
	return res, nil
}

// selectCutsOracle is the leader chain and anchor selection of
// colIntGraphOracle, with each gap a graph.Distance call.
func selectCutsOracle(g *graph.Graph, path []graph.Set, minGap int) (*colorreduce.AnchorResult, error) {
	if len(path) <= 1 {
		return &colorreduce.AnchorResult{}, nil
	}
	leaders := make([]graph.ID, len(path))
	occur := make(map[graph.ID]int)
	chainID := make([]graph.ID, len(path))
	for i, c := range path {
		leader := c[len(c)-1] // max ID in the sorted set
		leaders[i] = leader
		chainID[i] = graph.ID(int(leader)*(len(path)+1) + occur[leader])
		occur[leader]++
	}
	res, err := colorreduce.SelectAnchors(chainID, func(i, j int) int {
		if d := g.Distance(leaders[i], leaders[j]); d >= 0 {
			return d
		}
		return minGap // different components of the strip: a free cut
	}, minGap)
	if err != nil {
		return nil, fmt.Errorf("anchor selection: %w", err)
	}
	return res, nil
}

// repairCut fixes coloring conflicts between block b-1 and block b: the
// nodes crossing the cut keep their left-block colors; right-block nodes
// within distance k+3 of them are recolored via extendColoringOracle.
func repairCut(g *graph.Graph, path []graph.Set, blocks [][2]int, blockNodes [][]graph.ID, b, k int, res *IntervalColoring) error {
	cutPos := blocks[b-1][1]
	if cutPos+1 >= len(path) {
		return nil
	}
	crossing := path[cutPos].Intersect(path[cutPos+1])
	if len(crossing) == 0 {
		return nil
	}
	right := blockNodes[b]
	inRight := make(map[graph.ID]bool, len(right))
	for _, v := range right {
		inRight[v] = true
	}
	// The repair strip: right-block nodes plus the crossing clique.
	stripNodes := graph.NewSet(append(crossing.Clone(), right...)...)
	strip := g.InducedSubgraph(stripNodes)
	keep := make(map[graph.ID]bool, len(stripNodes))
	for _, v := range stripNodes {
		keep[v] = true
	}
	stripPath := interval.RestrictCliquePath(path, func(v graph.ID) bool { return keep[v] })

	zone := recolorZone(strip, crossing, k+3)
	inZone := make(map[graph.ID]bool, len(zone))
	for _, v := range zone {
		if inRight[v] {
			inZone[v] = true
		}
	}
	fixed := make(map[graph.ID]int)
	for _, v := range stripNodes {
		if !inZone[v] {
			fixed[v] = res.Colors[v]
		}
	}
	colors, err := extendColoringOracle(strip, stripPath, fixed, res.Palette)
	if err != nil {
		return fmt.Errorf("cut repair between blocks %d and %d: %w", b-1, b, err)
	}
	for v := range inZone {
		res.Colors[v] = colors[v]
	}
	return nil
}

// extendColoringOracle is ExtendColoring on a map-backed graph: the
// strip's nodes in left-endpoint order, the fixed checks in ascending ID
// order, then a recursive search.
func extendColoringOracle(g *graph.Graph, path []graph.Set, fixed map[graph.ID]int, palette int) (map[graph.ID]int, error) {
	order := leftEndpointOrder(g, path)
	free := make([]graph.ID, 0, len(order))
	for _, v := range order {
		if _, ok := fixed[v]; !ok {
			free = append(free, v)
		}
	}
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

// backtrack assigns free[i:] in order, trying colors ascending.
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

// recolorZone is the Lemma-10 zone: the strip nodes at distance at most
// horizon in g from boundary, boundary excluded.
func recolorZone(g *graph.Graph, boundary graph.Set, horizon int) graph.Set {
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

// AbsorbingMIS computes a maximum independent set of h that, when h leans
// on an outside clique anchor, absorbs its own closed neighborhood:
// simplicial vertices are taken furthest-from-anchor first (Section 7.1).
// Any simplicial vertex lies in some maximum independent set, so the
// greedy is exact regardless of order; the ordering provides the
// absorption property. It is the map-backed reference of the pipeline's
// index-space elimination (misScratch.absorb).
func AbsorbingMIS(h *graph.Graph, g *graph.Graph, anchor graph.Set) graph.Set {
	// Distances from the anchor measured in g restricted to h's nodes
	// plus the anchor clique, held in a slice keyed by position in the
	// sorted scope set (the region subgraph is never materialized; BFS
	// walks g's adjacency filtered to the scope). Unreached scope nodes
	// keep distance 0, matching the zero value the map-backed version
	// reported for them.
	var scope graph.Set
	var dist []int32
	if len(anchor) > 0 {
		scope = graph.NewSet(append(anchor.Clone(), h.Nodes()...)...)
		dist = make([]int32, len(scope))
		seen := make([]bool, len(scope))
		queue := make([]int32, 0, len(scope))
		for _, a := range anchor {
			if li, ok := scopeIndex(scope, a); ok && g.HasNode(a) && !seen[li] {
				seen[li] = true
				queue = append(queue, int32(li))
			}
		}
		for head := 0; head < len(queue); head++ {
			li := queue[head]
			g.ForEachNeighbor(scope[li], func(u graph.ID) {
				if uj, ok := scopeIndex(scope, u); ok && !seen[uj] {
					seen[uj] = true
					dist[uj] = dist[li] + 1
					queue = append(queue, int32(uj))
				}
			})
		}
	}
	distOf := func(v graph.ID) int32 {
		if dist == nil {
			return 0
		}
		if li, ok := scopeIndex(scope, v); ok {
			return dist[li]
		}
		return 0
	}
	work := h.Clone()
	var out graph.Set
	for work.NumNodes() > 0 {
		// The furthest-first, smallest-ID-on-ties pick: scanning the
		// sorted node list with a strict > keeps the smallest ID among
		// the maximum-distance simplicial vertices.
		best := graph.ID(0)
		var bestDist int32
		found := false
		for _, v := range work.Nodes() {
			if !work.IsClique(work.Neighbors(v)) {
				continue
			}
			if dv := distOf(v); !found || dv > bestDist {
				found = true
				best = v
				bestDist = dv
			}
		}
		out = append(out, best)
		for _, u := range work.Neighbors(best) {
			work.RemoveNode(u)
		}
		work.RemoveNode(best)
	}
	return graph.NewSet(out...)
}

// scopeIndex locates v in the sorted set by binary search.
func scopeIndex(scope graph.Set, v graph.ID) (int, bool) {
	i := sort.Search(len(scope), func(j int) bool { return scope[j] >= v })
	if i < len(scope) && scope[i] == v {
		return i, true
	}
	return 0, false
}
