package core

import (
	"fmt"
	"sort"

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
// graph with at most ⌊(1+1/k)χ⌋+1 colors in O(k·log* n)-flavoured rounds.
//
// Structure: a chain of per-clique leaders is derived from the clique
// path; anchors at pairwise distance ≥ 2k+8 are selected on it via
// Linial color reduction (the log* component); anchors cut the path into
// blocks, each colored optimally by a local coordinator; boundary
// conflicts between adjacent blocks are repaired inside a radius-(k+3)
// zone by the Lemma-9 recoloring engine, which the distance between
// anchors keeps collision-free.
//
// path must be a consecutive arrangement of the maximal cliques of g
// (empty restrictions allowed to have been dropped); idBound bounds node
// IDs for the symmetry-breaking palette.
func ColIntGraph(g *graph.Graph, path []graph.Set, k, idBound int) (*IntervalColoring, error) {
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

	cuts, anchorRounds, err := selectCuts(g, path, 2*k+8, idBound)
	if err != nil {
		return nil, err
	}
	res.Rounds += 4 // chain construction from O(1)-radius local views
	res.Rounds += anchorRounds

	blocks := splitBlocks(len(path), cuts)
	res.Blocks = len(blocks)

	// Assign each node to the block containing its first clique.
	firstClique := make(map[graph.ID]int)
	for i, c := range path {
		for _, v := range c {
			if _, ok := firstClique[v]; !ok {
				firstClique[v] = i
			}
		}
	}
	blockOf := make(map[graph.ID]int)
	for b, span := range blocks {
		for p := span[0]; p <= span[1]; p++ {
			for _, v := range path[p] {
				if firstClique[v] == p {
					// First occurrence decides; only record once.
					if _, ok := blockOf[v]; !ok {
						blockOf[v] = b
					}
				}
			}
		}
	}

	// Color every block optimally and independently (in the LOCAL run all
	// block coordinators work concurrently; we charge the max cost once).
	maxBlockCost := 0
	blockNodes := make([][]graph.ID, len(blocks))
	for v, b := range blockOf {
		blockNodes[b] = append(blockNodes[b], v)
	}
	for b := range blocks {
		nodes := blockNodes[b]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
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
// the anchor selection; it returns the cut positions (clique indices).
func selectCuts(g *graph.Graph, path []graph.Set, minGap, idBound int) ([]int, int, error) {
	if len(path) <= 1 {
		return nil, 0, nil
	}
	// One chain vertex per clique position with a unique synthetic ID
	// derived from (leader, per-leader occurrence index) — locally
	// computable since a node knows the order of its own cliques.
	leaders := make([]graph.ID, len(path))
	occur := make(map[graph.ID]int)
	chainID := make([]graph.ID, len(path))
	maxPhi := 1
	for i, c := range path {
		leader := c[len(c)-1] // max ID in the sorted set
		leaders[i] = leader
		chainID[i] = graph.ID(int(leader)*(len(path)+1) + occur[leader])
		occur[leader]++
		if occur[leader] > maxPhi {
			maxPhi = occur[leader]
		}
	}
	ch := colorreduce.NewChain()
	pos := make(map[graph.ID]int, len(path))
	for i := range path {
		ch.AddNode(chainID[i])
		pos[chainID[i]] = i
	}
	dist := func(a, b graph.ID) int {
		d := g.Distance(leaders[pos[a]], leaders[pos[b]])
		if d < 0 {
			// Different components of the strip: a free cut.
			return minGap
		}
		return d
	}
	ch.Dist = dist
	for i := 0; i+1 < len(path); i++ {
		ch.AddEdge(chainID[i], chainID[i+1], dist(chainID[i], chainID[i+1]))
	}
	resAnchors, err := colorreduce.SelectAnchors(ch, minGap, idBound*(len(path)+1)+maxPhi+1)
	if err != nil {
		return nil, 0, fmt.Errorf("anchor selection: %w", err)
	}
	var cuts []int
	for _, a := range resAnchors.Anchors {
		cuts = append(cuts, pos[a])
	}
	sort.Ints(cuts)
	return cuts, resAnchors.Rounds, nil
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
