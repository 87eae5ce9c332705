package core

import (
	"math"

	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/dist"
	"repro/internal/graph"
)

// This file is the pruning phase's decide kernel: given one iteration's
// flooded knowledge, every undecided center decides from its local view
// alone whether its subtree lies on a peelable path. The kernel is
// deterministic and parallel — centers are sharded over workers in
// snapshot-index order, each worker reuses one decideScratch for every
// center it processes, and results are merged in index order, so the
// outcome is bit-identical to running the centers one at a time.
//
// A center's view is G_i restricted to K, the nodes its flood
// delivered: the center BFS walks the snapshot's rows and enters a node
// only when it is undecided and in K, stamping reach and distance by
// snapshot index, and every later read goes through those stamps. The
// BFS is lazy: it grows only as far as the trust gate asks. The
// forest is G_i's canonical clique forest, built once per iteration by
// DistributedPruneSpec; a center reads a clique's row only after the
// trust gate (trusted) has found all of its members reached within
// radius − 3. Lemma 2 makes that read local: φ(u) and T(u), the forest
// edges among φ(u), are functions of G_i[Γ[u]], and a trusted clique's
// forest edges are the union of its members' T(u), because forest edges
// only join cliques that share a node. The BFS facts the rules consume —
// center distances, anchored diameters, induced-subgraph independence
// numbers — are order-independent.

// decideScratch is one worker's reusable state for deciding centers:
// epoch-stamped marks over the snapshot's nodes and the iteration's
// forest cliques, so starting the next center is a counter increment,
// not a reallocation or a sweep.
type decideScratch struct {
	// Per-center context, set by beginCenter: the view is G_i (the
	// undecided mask) restricted to the center's knowledge.
	ix        *graph.Indexed
	forest    *cliquetree.CSRForest
	know      *dist.Knowledge
	undecided []bool
	horizon   int
	epoch     int32

	// Per-clique marks by forest clique id (epoch-stamped).
	inWalked []int32 // walk membership, == epoch (includes consumed ends)
	inDiam   []int32 // walkedDiameter membership, == epoch (walked only)

	// Per-node marks by snapshot index (epoch-stamped): the center BFS's
	// reach, with its distance valid where reach == epoch, and the
	// member and anchor dedup.
	reach      []int32
	dist       []int32
	memMark    []int32
	anchorMark []int32

	// The center BFS: every node stamped so far, in BFS order, and the
	// position of the next one to expand.
	queue []int32
	head  int

	// Small reusable buffers.
	walked  []int32
	ends    []int32
	members []int32

	// The member-restricted anchor BFS: visited marks stamped per BFS
	// (bfsStamp counts BFS runs across centers, so nothing is reset per
	// BFS), distances by snapshot index, and the queue.
	bfsMark  []int32
	bfsDist  []int32
	bfsQueue []int32
	bfsStamp int32

	elim chordal.Elim // the α rule's MCS and Gavril count, over the snapshot's CSR
}

// beginCenter resets the scratch for a new center.
func (sc *decideScratch) beginCenter(ix *graph.Indexed, forest *cliquetree.CSRForest, know *dist.Knowledge, undecided []bool, horizon int) {
	sc.ix = ix
	sc.forest = forest
	sc.know = know
	sc.undecided = undecided
	sc.horizon = horizon
	if sc.epoch == math.MaxInt32 {
		clear(sc.inWalked)
		clear(sc.inDiam)
		clear(sc.reach)
		clear(sc.memMark)
		clear(sc.anchorMark)
		sc.epoch = 0
	}
	sc.epoch++
	sc.walked = sc.walked[:0]
	if nc := forest.NumCliques; len(sc.inWalked) < nc {
		sc.inWalked = growMarks(sc.inWalked, nc)
		sc.inDiam = growMarks(sc.inDiam, nc)
	}
	if n := ix.NumNodes(); len(sc.reach) < n {
		sc.reach = growMarks(sc.reach, n)
		sc.dist = growMarks(sc.dist, n)
		sc.memMark = growMarks(sc.memMark, n)
		sc.anchorMark = growMarks(sc.anchorMark, n)
		sc.bfsMark = growMarks(sc.bfsMark, n)
		sc.bfsDist = growMarks(sc.bfsDist, n)
		sc.queue = growMarks(sc.queue, n)
	}
}

// growMarks grows an epoch-stamped mark array; fresh entries are zero,
// which no live epoch ever equals.
func growMarks(a []int32, n int) []int32 {
	na := make([]int32, n)
	copy(na, a)
	return na
}

// centerBFS starts the center's view: a BFS from vIdx over the
// snapshot's rows that enters a node only when it is undecided and
// known, so it can reach exactly the center's component of G_i
// restricted to its knowledge. It only seeds the queue; reachWithin
// expands it.
func (sc *decideScratch) centerBFS(vIdx int32) {
	sc.queue = sc.queue[:1]
	sc.queue[0] = vIdx
	sc.head = 0
	sc.reach[vIdx] = sc.epoch
	sc.dist[vIdx] = 0
}

// reachWithin reports whether u is in the center's view within distance
// limit of the center. It expands the center BFS in BFS order until u
// is stamped or every node closer than limit has been expanded, so the
// BFS grows only as far as the questions asked of it. A node is stamped
// once, at its final distance, so the answer and every stamped distance
// are those of the whole BFS; neighbor order only affects queue order
// within a level. The queue has room for every node (beginCenter) and
// holds each at most once, so it is extended in place, never grown.
func (sc *decideScratch) reachWithin(u int32, limit int) bool {
	ep := sc.epoch
	q := sc.queue
	h := sc.head
	for ; h < len(q) && sc.reach[u] != ep && int(sc.dist[q[h]]) < limit; h++ {
		v := q[h]
		d := sc.dist[v] + 1
		for _, w := range sc.ix.NeighborIndices(int(v)) {
			if sc.reach[w] == ep || !sc.undecided[w] || !sc.know.KnownIdx(w) {
				continue
			}
			sc.reach[w] = ep
			sc.dist[w] = d
			q = q[:len(q)+1]
			q[len(q)-1] = w
		}
	}
	sc.queue, sc.head = q, h
	return sc.reach[u] == ep && int(sc.dist[u]) <= limit
}

// trusted reports whether every member of forest clique c is far enough
// from the knowledge horizon that its neighborhood (and hence the
// clique's full forest adjacency) is known exactly: within radius − 3
// of the center in its view. A member the center BFS does not reach is
// untrusted. The kernel reads a clique's forest row (Nbrs, Deg) only
// after this gate has passed.
func (sc *decideScratch) trusted(c int32) bool {
	for _, u := range sc.forest.Clique(c) {
		if !sc.reachWithin(u, sc.horizon-3) {
			return false
		}
	}
	return true
}

// pathEnds returns the (at most two) cliques of the own-path with fewer
// than two neighbors inside it; for a single clique it returns it
// twice. It runs before either walk, when the own cliques are the only
// ones marked walked, and scans them in ascending clique id, so the
// ends come out in that order.
func (sc *decideScratch) pathEnds(own []int32) []int32 {
	sc.ends = sc.ends[:0]
	if len(own) == 1 {
		sc.ends = append(sc.ends, own[0], own[0])
		return sc.ends
	}
	for _, ci := range own {
		inside := 0
		for _, nb := range sc.forest.Nbrs(ci) {
			if sc.inWalked[nb] == sc.epoch {
				inside++
			}
		}
		if inside <= 1 {
			sc.ends = append(sc.ends, ci)
		}
	}
	return sc.ends
}

// walkDirection extends the walked path from one end through binary
// trusted cliques, marking everything it visits (including the
// terminating frontier or branch clique, consumed so the other
// direction's walk skips it). It returns the end state (0 leaf,
// 1 branch, 2 frontier) and the branch clique's id (-1 if none). Only
// trusted cliques' rows are read: start is an own clique and every
// later cur passed the gate.
func (sc *decideScratch) walkDirection(start int32) (int, int32) {
	cur := start
	for {
		next := int32(-1)
		for _, nb := range sc.forest.Nbrs(cur) {
			if sc.inWalked[nb] != sc.epoch {
				next = nb
				break
			}
		}
		if next == -1 {
			return 0, -1 // leaf end
		}
		if !sc.trusted(next) {
			sc.inWalked[next] = sc.epoch
			return 2, -1 // frontier
		}
		if sc.forest.Deg(next) > 2 {
			sc.inWalked[next] = sc.epoch
			return 1, next // branch vertex
		}
		sc.walked = append(sc.walked, next)
		sc.inWalked[next] = sc.epoch
		cur = next
	}
}

// memberNodes collects the deduplicated snapshot indices of the
// members of the given cliques. Walked cliques are trusted, so the
// center BFS reached every member.
func (sc *decideScratch) memberNodes(cliques []int32) []int32 {
	sc.members = sc.members[:0]
	for _, ci := range cliques {
		for _, u := range sc.forest.Clique(ci) {
			if sc.memMark[u] == sc.epoch {
				continue
			}
			sc.memMark[u] = sc.epoch
			sc.members = append(sc.members, u)
		}
	}
	return sc.members
}

// walkedDiameter computes the anchored diameter of the walked path: the
// maximum distance from a member of the two extreme cliques to any
// member of the walked cliques. For pairs below the 3k threshold,
// distances in the view equal true distances (shortest paths fit inside
// the 10k ball). Membership is rebuilt from the walked slice alone —
// the walk's inWalked marks also hold consumed frontier/branch cliques,
// which are not part of the path being measured.
//
// Each anchor's BFS stays inside the members M (memberBFS): the walked
// cliques are trusted, so they form a path W of the true clique forest
// of G_i, and a node x outside M has all its cliques in one subtree of
// the forest minus W, hanging off W through one separator clique S that
// holds every M-neighbor of x. A member-to-member path that leaves M
// therefore leaves and re-enters through S and shortcuts to one edge,
// so member distances in the view equal those in the view restricted
// to M.
func (sc *decideScratch) walkedDiameter() int {
	members := len(sc.memberNodes(sc.walked))
	for _, ci := range sc.walked {
		sc.inDiam[ci] = sc.epoch
	}
	best := 0
	for _, ci := range sc.walked {
		inside := 0
		for _, nb := range sc.forest.Nbrs(ci) {
			if sc.inDiam[nb] == sc.epoch {
				inside++
			}
		}
		if inside > 1 {
			continue
		}
		// Extreme clique: BFS from each member (deduplicated across
		// cliques — the max over repeated anchors cannot change it).
		for _, u := range sc.forest.Clique(ci) {
			if sc.anchorMark[u] == sc.epoch {
				continue
			}
			sc.anchorMark[u] = sc.epoch
			if d := sc.memberBFS(u, members); d > best {
				best = d
			}
		}
	}
	return best
}

// anchoredDiameterProbe, when non-nil, receives every anchored diameter
// the kernel measures, with the scratch still holding the walk that
// produced it. Tests install it to check walkedDiameter against a
// whole-view BFS; it must be safe for concurrent use.
var anchoredDiameterProbe func(sc *decideScratch, d int)

// memberBFS runs a BFS from the member src over the snapshot's edges
// among the current member set (memMark) and returns the largest
// distance it reaches. It stops as soon as all members are reached;
// visited marks carry a per-BFS stamp, so no per-BFS reset is needed.
func (sc *decideScratch) memberBFS(src int32, members int) int {
	if sc.bfsStamp == math.MaxInt32 {
		clear(sc.bfsMark)
		sc.bfsStamp = 0
	}
	sc.bfsStamp++
	stamp := sc.bfsStamp
	q := sc.bfsQueue
	q = q[:0]
	q = append(q, src)
	sc.bfsMark[src] = stamp
	sc.bfsDist[src] = 0
	for h := 0; h < len(q) && len(q) < members; h++ {
		v := q[h]
		d := sc.bfsDist[v] + 1
		for _, u := range sc.ix.NeighborIndices(int(v)) {
			if sc.memMark[u] != sc.epoch || sc.bfsMark[u] == stamp {
				continue
			}
			sc.bfsMark[u] = stamp
			sc.bfsDist[u] = d
			q = append(q, u)
		}
	}
	sc.bfsQueue = q
	// BFS appends nodes in nondecreasing distance order.
	return int(sc.bfsDist[q[len(q)-1]])
}

// decideCenter determines, purely from the center's view — G_i
// restricted to know, the center's flooded knowledge — whether the
// center at snapshot index vIdx is peeled in the current iteration
// under the given rule, and if so returns its parent's snapshot index
// (-1 = ⊥). undecided is G_i's node mask by snapshot index.
func decideCenter(sc *decideScratch, ix *graph.Indexed, forest *cliquetree.CSRForest, know *dist.Knowledge, undecided []bool, vIdx int32, rule decideRule, radius int) (bool, int32) {
	sc.beginCenter(ix, forest, know, undecided, radius)
	sc.centerBFS(vIdx)
	// φ(v), in ascending clique id. Every clique containing v sits
	// within Γ[v], so for radius ≥ 4 each is trusted; require that all
	// the same, and require every one binary.
	own := forest.PhiRow(vIdx)
	for _, ci := range own {
		if !sc.trusted(ci) || forest.Deg(ci) > 2 {
			return false, -1
		}
	}

	// φ(v) induces a path in the forest; walk outward from its ends.
	sc.walked = append(sc.walked, own...)
	for _, ci := range sc.walked {
		sc.inWalked[ci] = sc.epoch
	}
	// endState: 0 leaf, 1 branch (deg>=3), 2 frontier (untrusted).
	var ends [2]int
	attach := [2]int32{-1, -1} // branch clique id per end
	endIdx := 0
	for _, start := range sc.pathEnds(own) {
		ends[endIdx], attach[endIdx] = sc.walkDirection(start)
		endIdx++
		if endIdx == 2 {
			break
		}
	}

	peelMe := false
	if ends[0] == 0 || ends[1] == 0 {
		peelMe = true // pendant path
	} else if rule.alphaThreshold > 0 {
		// Algorithm 6's last iteration: peel internal paths whose
		// independence number reaches the threshold. The walked portion
		// suffices: paths cut at the frontier span enough distance that
		// their α already exceeds the threshold, and fully visible
		// paths are measured exactly. The members induce a chordal
		// subgraph (the prune rejects non-chordal input before its first
		// flood), so MCS yields a PEO and Gavril's count is exact.
		_, rowPtr, cols := ix.CSR()
		sc.elim.MCS(rowPtr, cols, sc.memberNodes(sc.walked))
		peelMe = sc.elim.Alpha() >= rule.alphaThreshold
	} else {
		// Internal (or frontier-extended) path: peel iff anchored
		// diameter reaches the threshold within the walked portion.
		d := sc.walkedDiameter()
		if anchoredDiameterProbe != nil {
			anchoredDiameterProbe(sc, d)
		}
		peelMe = d >= rule.diamThreshold
	}
	if !peelMe {
		return false, -1
	}

	// Parent (Definition 1): the closest attachment clique within k+3,
	// distances read off the center BFS. An attachment clique passed the
	// trust gate, so the BFS stamped every member. On an equal-distance
	// tie the first end wins; the ends follow the forest's ascending
	// clique ids (pathEnds, and Nbrs in walkDirection).
	parent := int32(-1)
	bestDist := 1 << 30
	for e := 0; e < 2; e++ {
		if attach[e] < 0 {
			continue
		}
		members := forest.Clique(attach[e])
		d := 1 << 30
		for _, u := range members {
			d = min(d, int(sc.dist[u]))
		}
		if d <= rule.parentHorizon && d < bestDist {
			bestDist = d
			// The max-ID member: indices ascend with IDs.
			parent = members[len(members)-1]
		}
	}
	return true, parent
}

// decideResult is one shard's per-center output slot.
type decideResult struct {
	peel   bool
	parent int32 // snapshot index; -1 = ⊥
}

// runDecideStage runs the decide kernel for one pruning iteration:
// centers (snapshot indices of the undecided nodes, ascending) are
// split into shards = dist.KernelShards(len(centers)) contiguous ranges,
// one scratch each, decided concurrently, and merged in index order.
// forest is G_i's clique forest, read-only here. The returned results
// are aligned with centers.
//
// The observer (may be nil) sees the stage as a synthetic single-round
// engine run under the caller's current phase label: RoundStart(0,
// shards), the per-shard Start/End brackets from the workers, then
// RoundEnd with Done = the number of centers peeled, and RunEnd. An
// observer implementing dist.KernelObserver additionally sees the stage
// as one "decide" kernel span with per-shard busy/item counts.
//
//chordalvet:hotpath budget=7 decide kernel: per-center work must stay on scratch reuse
func runDecideStage(ix *graph.Indexed, know []*dist.Knowledge, forest *cliquetree.CSRForest, scratches []*decideScratch, centers []int32, undecidedIdx []bool, rule decideRule, radius, shards int, o dist.RoundObserver, results []decideResult) []decideResult {
	n := len(centers)
	if cap(results) < n {
		results = make([]decideResult, n)
	}
	results = results[:n]
	ko, _ := o.(dist.KernelObserver)
	if o != nil {
		o.RoundStart(0, shards)
	}
	dist.RunKernel("decide", n, shards, ko, func(shard, lo, hi int) {
		if o != nil {
			o.ShardStart(shard)
		}
		sc := scratches[shard]
		for pos := lo; pos < hi; pos++ {
			vIdx := centers[pos]
			peel, parent := decideCenter(sc, ix, forest, know[vIdx], undecidedIdx, vIdx, rule, radius)
			results[pos] = decideResult{peel: peel, parent: parent}
		}
		if o != nil {
			o.ShardEnd(shard)
		}
	})
	if o != nil {
		done := 0
		for i := range results {
			if results[i].peel {
				done++
			}
		}
		o.RoundEnd(dist.RoundStats{Round: 0, Nodes: n, Shards: shards, Done: done})
		o.RunEnd(0)
	}
	return results
}
