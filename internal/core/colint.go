package core

import (
	"fmt"
	"slices"

	"repro/internal/colorreduce"
	"repro/internal/graph"
	"repro/internal/interval"
)

// IntervalColoring is the result of ColIntGraph.
type IntervalColoring struct {
	Colors     map[graph.ID]int
	ColorsUsed int
	// Palette is the quality guarantee ⌊(1+1/k)χ⌋+1 the coloring respects.
	Palette int
	Rounds  int
	Blocks  int
	Omega   int
}

// ColIntGraph reimplements the Halldórsson–Konrad interval coloring
// algorithm [21] the paper reuses: for k = ⌈2/ε⌉ it colors an interval
// graph with at most ⌊(1+1/k)χ⌋+1 colors. [21] takes O(k·log* n) rounds;
// the rounds charged here grow with the largest anchor gap and block
// diameter instead (experiment E7).
//
// Structure: a chain of per-clique leaders is derived from the clique
// path; anchors at pairwise distance ≥ 2k+8 are selected on it by
// colorreduce.SelectAnchors' drop phases (hashed per-phase priorities
// break the symmetry); anchors cut the path into blocks, each colored
// optimally by a local coordinator; boundary conflicts between adjacent
// blocks are repaired inside a radius-(k+3) zone by the Lemma-9
// recoloring engine, which the distance between anchors keeps
// collision-free.
//
// path must be a consecutive arrangement of the maximal cliques of g
// (empty restrictions allowed to have been dropped).
func ColIntGraph(g *graph.Graph, path []graph.Set, k int) (*IntervalColoring, error) {
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

	anchors, err := selectCuts(g, path, 2*k+8)
	if err != nil {
		return nil, err
	}
	cuts := anchors.Anchors
	res.Rounds += 4 // chain construction from O(1)-radius local views
	res.Rounds += anchors.Rounds

	blocks := splitBlocks(len(path), cuts)
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

	// Color every block optimally and independently (in the LOCAL run all
	// block coordinators work concurrently; we charge the max cost once).
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
		colors, err := ExtendColoring(sub, subPath, nil, res.Palette)
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

	// Repair each cut: nodes of the right block within distance k+3 of the
	// crossing clique are recolored against the crossing's (left-block)
	// colors and the right block's untouched interior. Cuts are ≥ 2k+8
	// apart, so zones do not collide and repairs run concurrently.
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

// selectCuts builds the leader chain over clique-path positions and runs
// the anchor selection; the anchors are the cut positions (clique
// indices), ascending.
func selectCuts(g *graph.Graph, path []graph.Set, minGap int) (*colorreduce.AnchorResult, error) {
	if len(path) <= 1 {
		return &colorreduce.AnchorResult{}, nil
	}
	// One chain vertex per clique position with a unique synthetic ID
	// derived from (leader, per-leader occurrence index) — locally
	// computable since a node knows the order of its own cliques.
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

// splitBlocks partitions clique positions [0, n) into blocks delimited by
// the cut positions: block boundaries fall after each cut position.
func splitBlocks(n int, cuts []int) [][2]int {
	var blocks [][2]int
	start := 0
	for _, c := range cuts {
		if c+1 <= n-1 && c >= start {
			blocks = append(blocks, [2]int{start, c})
			start = c + 1
		}
	}
	if start <= n-1 {
		blocks = append(blocks, [2]int{start, n - 1})
	}
	if len(blocks) == 0 && n > 0 {
		blocks = append(blocks, [2]int{0, n - 1})
	}
	return blocks
}

// repairCut fixes coloring conflicts between block b-1 and block b: the
// nodes crossing the cut keep their left-block colors; right-block nodes
// within distance k+3 of them are recolored via ExtendColoring.
func repairCut(g *graph.Graph, path []graph.Set, blocks [][2]int, blockNodes [][]graph.ID, b, k int, res *IntervalColoring) error {
	cutPos := blocks[b-1][1]
	if cutPos+1 >= len(path) {
		return nil
	}
	crossing := path[cutPos].Intersect(path[cutPos+1])
	if len(crossing) == 0 {
		return nil
	}
	// Restrict crossing to nodes actually assigned to earlier blocks.
	var fixedBoundary graph.Set
	for _, v := range crossing {
		fixedBoundary = append(fixedBoundary, v)
	}
	right := blockNodes[b]
	inRight := make(map[graph.ID]bool, len(right))
	for _, v := range right {
		inRight[v] = true
	}
	// The repair strip: right-block nodes plus the crossing clique.
	stripNodes := graph.NewSet(append(fixedBoundary.Clone(), right...)...)
	strip := g.InducedSubgraph(stripNodes)
	keep := make(map[graph.ID]bool, len(stripNodes))
	for _, v := range stripNodes {
		keep[v] = true
	}
	stripPath := interval.RestrictCliquePath(path, func(v graph.ID) bool { return keep[v] })

	zone := RecolorZone(strip, fixedBoundary, k+3)
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
	colors, err := ExtendColoring(strip, stripPath, fixed, res.Palette)
	if err != nil {
		return fmt.Errorf("cut repair between blocks %d and %d: %w", b-1, b, err)
	}
	for v := range inZone {
		res.Colors[v] = colors[v]
	}
	return nil
}
