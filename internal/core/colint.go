// Package core implements the paper's contribution: the centralized and
// distributed (1+ε)-approximation algorithms for Minimum Vertex Coloring
// (Algorithms 1–4, Theorems 3–4) and Maximum Independent Set
// (Algorithms 5–6, Theorems 5–8) on chordal and interval graphs, built on
// the clique-forest, peeling, LOCAL-simulation and symmetry-breaking
// substrates.
package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/colorreduce"
	"repro/internal/graph"
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
// collision-free. It runs on a snapshot of g with the strip kernel the
// pipeline's "color-paths" stage runs on each peeled path.
//
// path must be a consecutive arrangement of the maximal cliques of g
// (empty restrictions allowed to have been dropped). k must lie in
// [1, maxParam], the bound that keeps the kernel's horizons within its
// int32 distances.
func ColIntGraph(g *graph.Graph, path []graph.Set, k int) (*IntervalColoring, error) {
	if k < 1 {
		return nil, fmt.Errorf("k must be >= 1, got %d", k)
	}
	if k > maxParam {
		return nil, fmt.Errorf("k must be <= %d, got %d", maxParam, k)
	}
	if g.NumNodes() == 0 {
		return &IntervalColoring{Colors: map[graph.ID]int{}}, nil
	}
	ix := graph.NewIndexed(g)
	var s correctScratch
	res, err := s.colIntGraph(ix, allIndices(ix.NumNodes()), indexPath(ix, path), k)
	if err != nil {
		return nil, err
	}
	colors := s.color[:ix.NumNodes()]
	res.Colors = colorMap(ix.IDs(), colors)
	res.ColorsUsed = colorsUsed(colors)
	return &res, nil
}

// ExtendColoring implements the constructive side of Lemmas 9–10: given an
// interval strip (nodes of g) where some nodes carry fixed colors (the
// boundary cliques and the untouched interior), properly color the
// remaining nodes with colors from [1, palette]. Nodes are processed in
// left-endpoint order along the clique path; when plain greedy fails the
// engine falls back to exhaustive backtracking, whose success within the
// Lemma-9 palette is guaranteed whenever the fixed regions are at distance
// at least k+3. It runs the pipeline's strip kernel on a snapshot of g.
//
// path must be a consecutive arrangement of the maximal cliques of g.
// The kernel's colors are 32-bit: a palette above 2^31−1 acts as 2^31−1.
func ExtendColoring(g *graph.Graph, path []graph.Set, fixed map[graph.ID]int, palette int) (map[graph.ID]int, error) {
	// A fixed node outside g has no strip position, so the kernel's
	// palette check, in ascending ID order, runs here for every one.
	fixedIDs := make([]graph.ID, 0, len(fixed))
	for v := range fixed {
		fixedIDs = append(fixedIDs, v)
	}
	slices.Sort(fixedIDs)
	for _, v := range fixedIDs {
		if c := fixed[v]; c < 1 || c > palette {
			return nil, fmt.Errorf("fixed color %d of node %d outside palette [1,%d]", c, v, palette)
		}
	}
	ix := graph.NewIndexed(g)
	var s correctScratch
	s.layPath(ix, allIndices(ix.NumNodes()), indexPath(ix, path))
	s.restrict(s.strip)
	ids := ix.IDs()
	for p, v := range ids {
		if c, ok := fixed[v]; ok {
			s.color[p] = int32(c)
		} else {
			s.reach[p] = 1
		}
	}
	if err := s.recolor(ix, s.strip, int32(min(palette, math.MaxInt32))); err != nil {
		return nil, err
	}
	colors := make(map[graph.ID]int, len(fixed)+len(s.free))
	maps.Copy(colors, fixed)
	for _, p := range s.free {
		colors[ids[p]] = int(s.color[p])
	}
	return colors, nil
}

// backtrackBudget bounds the recoloring search. LOCAL allows unbounded
// computation, but a library should fail loudly rather than hang; the
// Lemma-9 instances the algorithms generate resolve in near-linear steps,
// orders of magnitude below this cap (experiment E8).
const backtrackBudget = 20_000_000

// indexPath is the entry points' one conversion of their clique path to
// snapshot indices; IDs that are not nodes drop out, as in the kernel.
func indexPath(ix *graph.Indexed, path []graph.Set) [][]int32 {
	out := make([][]int32, len(path))
	for i, c := range path {
		for _, v := range c {
			if x, ok := ix.IndexOf(v); ok {
				out[i] = append(out[i], int32(x))
			}
		}
	}
	return out
}

// allIndices is 0, 1, …, n−1: every node of an n-node snapshot.
func allIndices(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// colorPath runs ColIntGraph on one peeled path of the color-paths
// launch, its W and its cliques by snapshot index (ascending), and
// appends W's colors to s.outIdx/s.outColor.
//
//chordalvet:hotpath budget=49 color-paths: per-path work reuses shard scratch
func (s *correctScratch) colorPath(ix *graph.Indexed, w []int32, cliques [][]int32, k int) (int, error) {
	res, err := s.colIntGraph(ix, w, cliques, k)
	if err != nil {
		return 0, err
	}
	s.outIdx = append(s.outIdx, w...)
	s.outColor = append(s.outColor, s.color[:len(w)]...)
	return res.Rounds, nil
}

// colIntGraph is ColIntGraph on the strip w along cliques restricted to
// w, all by snapshot index (ascending). It leaves the colors in s.color
// (0 on no clique) and returns the rest of the result.
func (s *correctScratch) colIntGraph(ix *graph.Indexed, w []int32, cliques [][]int32, k int) (IntervalColoring, error) {
	var res IntervalColoring
	res.Omega = s.layPath(ix, w, cliques)
	res.Palette = (k+1)*res.Omega/k + 1
	palette := int32(res.Palette)

	anchors, err := s.selectCuts(ix, 2*k+8)
	if err != nil {
		return res, err
	}
	cuts := anchors.Anchors
	res.Rounds = 4 + anchors.Rounds // 4 for the chain, built from O(1)-radius local views
	s.blocks = splitBlocks(s.blocks, len(s.wclOff)-1, cuts)
	res.Blocks = len(s.blocks)

	// Each node joins the block holding its first clique. Every block is
	// colored optimally and independently, every node free (in the LOCAL
	// run all block coordinators work concurrently; we charge the max
	// cost once). Block b's nodes are bm[bmOff[b]:bmOff[b+1]], ascending.
	s.bm, s.bmOff = s.bm[:0], append(s.bmOff[:0], 0)
	maxBlockCost := 0
	for b, bl := range s.blocks {
		start := len(s.bm)
		for i := bl[0]; i <= bl[1]; i++ {
			for _, p := range s.wcl[s.wclOff[i]:s.wclOff[i+1]] {
				if s.wfirst[p] == int32(i) {
					s.bm = append(s.bm, s.strip[p])
					s.reach[p] = 1
				}
			}
		}
		nodes := s.bm[start:]
		slices.Sort(nodes)
		s.bmOff = append(s.bmOff, int32(len(s.bm)))
		s.restrict(nodes)
		if err := s.recolor(ix, nodes, palette); err != nil {
			return res, fmt.Errorf("block %d: %w", b, err)
		}
		maxBlockCost = max(maxBlockCost, s.diameter(ix, nodes)+1)
	}
	res.Rounds += maxBlockCost

	// Repair each cut: nodes of the right block within distance k+3 of the
	// crossing clique are recolored against the crossing's (left-block)
	// colors and the right block's untouched interior. Cuts are ≥ 2k+8
	// apart, so zones do not collide and repairs run concurrently.
	if len(cuts) > 0 {
		for b := 1; b < len(s.blocks); b++ {
			if err := s.repairBlock(ix, b, k+3, palette); err != nil {
				return res, fmt.Errorf("cut repair between blocks %d and %d: %w", b-1, b, err)
			}
		}
		res.Rounds += k + 5
	}
	return res, nil
}

// layPath makes w the strip and the current members, unreached and
// uncolored, lays cliques restricted to w out in wcl with each node's
// first and last clique on them, and returns the largest. w and the
// cliques are snapshot indices, ascending.
func (s *correctScratch) layPath(ix *graph.Indexed, w []int32, cliques [][]int32) int {
	s.nextEpoch(ix.NumNodes())
	s.grow(len(w))
	if len(s.wfirst) < len(w) {
		s.wfirst = make([]int32, len(w))
		s.wlast = make([]int32, len(w))
		s.occur = make([]int32, len(w))
	}
	s.strip = append(s.strip[:0], w...)
	for p, x := range w {
		s.stamp[x], s.loc[x] = s.epoch, int32(p)
		s.reach[p], s.color[p] = -1, 0
		s.wfirst[p], s.wlast[p] = -1, 0
	}
	s.resetPath()
	for _, c := range cliques {
		s.pushClique(c)
	}
	s.cl, s.wcl = s.wcl[:0], s.cl
	s.clOff, s.wclOff = s.wclOff[:0], s.clOff
	omega := 0
	for i := range len(s.wclOff) - 1 {
		c := s.wcl[s.wclOff[i]:s.wclOff[i+1]]
		omega = max(omega, len(c))
		for _, p := range c {
			if s.wfirst[p] < 0 {
				s.wfirst[p] = int32(i)
			}
			s.wlast[p] = int32(i)
		}
	}
	return omega
}

// selectCuts builds the leader chain over the positions of the path's
// clique path and runs the anchor selection, with each gap a BFS over
// the strip; the anchors are the cut positions (clique indices).
func (s *correctScratch) selectCuts(ix *graph.Indexed, minGap int) (*colorreduce.AnchorResult, error) {
	np := len(s.wclOff) - 1
	if np <= 1 {
		return &colorreduce.AnchorResult{}, nil
	}
	// One chain vertex per clique position with a unique synthetic ID
	// derived from (leader, per-leader occurrence index) — locally
	// computable since a node knows the order of its own cliques. A
	// clique's leader is its largest ID.
	s.chain = s.chain[:0]
	clear(s.occur[:len(s.strip)])
	for i := range np {
		leader := s.wcl[s.wclOff[i+1]-1]
		s.chain = append(s.chain, graph.ID(int(ix.IDOf(int(s.strip[leader])))*(np+1)+int(s.occur[leader])))
		s.occur[leader]++
	}
	res, err := colorreduce.SelectAnchors(s.chain, func(i, j int) int {
		a, b := s.wcl[s.wclOff[i+1]-1], s.wcl[s.wclOff[j+1]-1] // the leaders
		if a == b {
			return 0
		}
		s.queue = append(s.queue[:0], s.strip[a])
		s.reach[a] = 0
		d := s.bfs(ix, math.MaxInt32, s.strip[b])
		for _, x := range s.queue {
			s.reach[s.loc[x]] = -1
		}
		if d < 0 {
			return minGap // different components of the strip: a free cut
		}
		return int(d)
	}, minGap)
	if err != nil {
		return nil, fmt.Errorf("anchor selection: %w", err)
	}
	return res, nil
}

// splitBlocks sets blocks to the partition of clique positions [0, n)
// into blocks delimited by the cut positions: block boundaries fall
// after each cut position.
func splitBlocks(blocks [][2]int, n int, cuts []int) [][2]int {
	blocks = blocks[:0]
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

// restrict makes members, strip nodes by snapshot index, the current
// members and lays out their restriction of wcl in cl, visiting only
// the cliques from the members' first to their last.
func (s *correctScratch) restrict(members []int32) {
	s.nextEpoch(len(s.stamp))
	lo, hi := int32(len(s.wclOff)), int32(-1)
	for _, x := range members {
		s.stamp[x] = s.epoch
		if p := s.loc[x]; s.wfirst[p] >= 0 {
			lo, hi = min(lo, s.wfirst[p]), max(hi, s.wlast[p])
		}
	}
	s.resetPath()
	for i := lo; i <= hi; i++ {
		s.pushPositions(s.wcl[s.wclOff[i]:s.wclOff[i+1]])
	}
}

// repairBlock recolors block b's nodes within horizon of the clique
// crossing the cut before it against that clique's colors and the rest
// of the block's. The crossing nodes' first cliques lie left of the cut,
// so they belong to earlier blocks.
func (s *correctScratch) repairBlock(ix *graph.Indexed, b, horizon int, palette int32) error {
	cut := s.blocks[b-1][1]
	left := s.wcl[s.wclOff[cut]:s.wclOff[cut+1]]
	right := s.wcl[s.wclOff[cut+1]:s.wclOff[cut+2]]
	crossing := s.queue[:0]
	for _, p := range left {
		if _, ok := slices.BinarySearch(right, p); ok {
			crossing = append(crossing, s.strip[p])
		}
	}
	s.queue = crossing
	if len(crossing) == 0 {
		return nil
	}
	s.members = append(append(s.members[:0], crossing...), s.bm[s.bmOff[b]:s.bmOff[b+1]]...)
	slices.Sort(s.members)
	s.restrict(s.members)
	for _, x := range s.members {
		s.reach[s.loc[x]] = -1
	}
	s.zone(ix, horizon)
	return s.recolor(ix, s.members, palette)
}

// diameter is interval.Diameter of the current members along the clique
// path recolor last ordered: one BFS per component, from its node whose
// last clique comes first (the largest ID on ties).
func (s *correctScratch) diameter(ix *graph.Indexed, members []int32) int {
	for _, x := range members {
		s.reach[s.loc[x]] = -1
	}
	diam := 0
	for i := range len(s.clOff) - 1 {
		c := s.cl[s.clOff[i]:s.clOff[i+1]]
		for j := len(c) - 1; j >= 0; j-- {
			src := c[j]
			if s.last[src] != int32(i) || s.reach[src] >= 0 {
				continue
			}
			s.queue = append(s.queue[:0], s.strip[src])
			s.reach[src] = 0
			s.bfs(ix, math.MaxInt32, -1)
			diam = max(diam, int(s.reach[s.loc[s.queue[len(s.queue)-1]]]))
		}
	}
	return diam
}
