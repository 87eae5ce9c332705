package core

import (
	"math"

	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/view"
)

// This file is the pruning phase's decide kernel: given one iteration's
// flooded knowledge, every undecided center decides from its local view
// alone whether its subtree lies on a peelable path. The kernel is
// deterministic and parallel — centers are sharded over workers in
// snapshot-index order, each worker reuses one decideScratch for every
// center it processes, and results are merged in index order with
// first-error-wins semantics, so the outcome is bit-identical to
// running the centers one at a time.
//
// The per-center machinery is the Section 3 lazy clique-forest view
// that used to live in prune_dist.go, rebuilt on slice-backed,
// epoch-stamped scratch state over a CSR ball (view.Ball) instead of
// per-center map-backed graphs. Decisions are unchanged: local clique
// ids are assigned in ensure order (independent of the shared cache's
// intern numbering), forest adjacency is kept sorted by local id
// exactly as the old sort of map keys produced, and the BFS facts the
// rules consume — center distances, anchored diameters, induced-
// subgraph independence numbers — are order-independent.

// cliqueCache shares the per-node Section 3 computations — φ(u), the
// maximal cliques containing u, and T(u), the MWSF of W_G restricted to
// φ(u) (Lemma 2) — across all centers of one pruning iteration. Both
// depend only on G_i[Γ[u]] (MaximalCliquesContaining computes from the
// closed neighborhood; the forest restriction is a function of φ(u)
// alone), and every center whose ball trusts u sees exactly that
// neighborhood, so computing them once on G_i is bit-for-bit equivalent
// to recomputing them inside each ball. Cliques are interned to integer
// ids so per-center views dedup by id instead of hashing members; each
// interned clique also carries its member list in snapshot-index space
// (memberIdx) so the kernel's ball lookups are plain array reads.
//
// Concurrency: prepopulate computes every undecided node's view in a
// deterministic two-phase pass (parallel pure compute, then sequential
// interning in node order), after which the cache is read-only — the
// parallel decide stage shares it without locks.
type cliqueCache struct {
	gi        *graph.Graph
	ix        *graph.Indexed // the index space memberIdx lives in
	idx       map[string]int
	sets      []graph.Set // by interned id
	memberIdx [][]int32   // by interned id, aligned with sets
	views     map[graph.ID]*nodeCliques
}

// nodeCliques is one node's cached share: φ(u) in canonical order, the
// interned id of each clique, T(u) as index pairs into phi, and the
// computation error, if any — recorded rather than raised so the
// parallel pre-populate reports failures at exactly the center walk
// that would have tripped over them in the sequential lazy path.
type nodeCliques struct {
	phi   []graph.Set
	ids   []int
	edges [][2]int
	err   error
}

func newCliqueCache(gi *graph.Graph, ix *graph.Indexed) *cliqueCache {
	return &cliqueCache{
		gi:    gi,
		ix:    ix,
		idx:   make(map[string]int),
		views: make(map[graph.ID]*nodeCliques),
	}
}

func (cc *cliqueCache) intern(c graph.Set) int {
	b := make([]byte, 0, len(c)*4)
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	key := string(b)
	if i, ok := cc.idx[key]; ok {
		return i
	}
	i := len(cc.idx)
	cc.idx[key] = i
	cc.sets = append(cc.sets, c)
	mi := make([]int32, len(c))
	for j, v := range c {
		r, _ := cc.ix.IndexOf(v)
		mi[j] = int32(r)
	}
	cc.memberIdx = append(cc.memberIdx, mi)
	return i
}

// computeNode is the pure part of a node's view: no cache mutation, so
// prepopulate runs it concurrently.
func (cc *cliqueCache) computeNode(u graph.ID) *nodeCliques {
	phi, err := cliquetree.MaximalCliquesContaining(cc.gi, u)
	if err != nil {
		return &nodeCliques{err: err}
	}
	return &nodeCliques{
		phi:   phi,
		edges: cliquetree.MaxWeightSpanningForest(phi, cliquetree.WCIG(phi)),
	}
}

func (cc *cliqueCache) internNode(nv *nodeCliques) {
	nv.ids = make([]int, len(nv.phi))
	for i, c := range nv.phi {
		nv.ids[i] = cc.intern(c)
	}
}

// prepopulate fills the cache for every given node: phase one computes
// the views in parallel (each is a pure function of gi), phase two
// interns cliques sequentially in node order so ids are deterministic.
// After prepopulate the cache is read-only and safe to share across
// decide workers.
func (cc *cliqueCache) prepopulate(nodes []graph.ID) {
	// The parallel phase reads gi through Graph.Neighbors, whose sorted-
	// adjacency cache fills lazily; warm it sequentially first so the
	// concurrent readers never write it.
	for _, u := range nodes {
		cc.gi.Neighbors(u)
	}
	computed := make([]*nodeCliques, len(nodes))
	dist.RunKernel("clique-cache", len(nodes), dist.KernelShards(len(nodes)), nil, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			computed[i] = cc.computeNode(nodes[i])
		}
	})
	for i, u := range nodes {
		nv := computed[i]
		if nv.err == nil {
			cc.internNode(nv)
		}
		cc.views[u] = nv
	}
}

// node returns u's prepopulated view. Every node a center walk reaches
// is a node of gi, and prepopulate covered all of them. A recorded
// error surfaces here, at the first center walk that needs the failed
// node — the same attribution the sequential lazy computation produced.
func (cc *cliqueCache) node(u graph.ID) (*nodeCliques, error) {
	nv := cc.views[u]
	if nv.err != nil {
		return nil, nv.err
	}
	return nv, nil
}

// decideScratch is one worker's reusable state for deciding centers: a
// view.Scratch (private CSR ball + BFS storage) plus the slice-backed
// lazy clique-forest view. All per-center maps of the old
// implementation are replaced by epoch-stamped arrays, so starting the
// next center is a counter increment, not a reallocation.
type decideScratch struct {
	view.Scratch

	// Per-center context, set by beginCenter.
	cache   *cliqueCache
	ball    *view.Ball
	horizon int
	epoch   int32

	// localOf maps a cache clique id to its local id for the current
	// center (valid when localMark holds the epoch). Local ids are
	// assigned densely in ensure order — the quantity every walk
	// comparison and sort key actually uses, which is why the cache's
	// intern numbering never leaks into decisions.
	localOf   []int32
	localMark []int32
	// ensMark marks already-ensured nodes by snapshot index.
	ensMark []int32

	// Per-local-id state, truncated per center and regrown by addClique.
	cliqueIDs []int32   // local id -> cache clique id
	adjRows   [][]int32 // local id -> forest neighbors, sorted by local id
	inWalked  []int32   // walk membership, == epoch (includes consumed ends)
	inDiam    []int32   // walkedDiameter membership, == epoch (walked only)

	// Per-ball-row marks (epoch-stamped) and small reusable buffers.
	memMark    []int32 // member dedup by row
	anchorMark []int32 // anchor BFS dedup by row
	phiBuf     []int32 // ensureNode's φ(u) -> local id mapping
	own        []int32
	walked     []int32
	ends       []int32
	memRows    []int32

	// The member-restricted anchor BFS: visited marks stamped per BFS
	// (bfsStamp counts BFS runs across centers, so nothing is reset per
	// BFS), distances by row, and the queue.
	bfsMark  []int32
	bfsDist  []int32
	bfsQueue []int32
	bfsStamp int32

	elim chordal.Elim // the α rule's MCS and Gavril count, over ball rows
}

// beginCenter resets the scratch for a new center over the given ball.
func (sc *decideScratch) beginCenter(cache *cliqueCache, ball *view.Ball, horizon int) {
	sc.cache = cache
	sc.ball = ball
	sc.horizon = horizon
	if sc.epoch == math.MaxInt32 {
		for i := range sc.localMark {
			sc.localMark[i] = 0
		}
		for i := range sc.ensMark {
			sc.ensMark[i] = 0
		}
		for i := range sc.inWalked {
			sc.inWalked[i] = 0
		}
		for i := range sc.inDiam {
			sc.inDiam[i] = 0
		}
		for i := range sc.memMark {
			sc.memMark[i] = 0
		}
		for i := range sc.anchorMark {
			sc.anchorMark[i] = 0
		}
		sc.epoch = 0
	}
	if sc.bfsStamp == math.MaxInt32 {
		for i := range sc.bfsMark {
			sc.bfsMark[i] = 0
		}
		sc.bfsStamp = 0
	}
	sc.epoch++
	sc.cliqueIDs = sc.cliqueIDs[:0]
	sc.own = sc.own[:0]
	sc.walked = sc.walked[:0]
	if n := len(cache.ix.IDs()); len(sc.ensMark) < n {
		sc.ensMark = growMarks(sc.ensMark, n)
	}
	if nr := ball.NumRows(); len(sc.memMark) < nr {
		sc.memMark = growMarks(sc.memMark, nr)
		sc.anchorMark = growMarks(sc.anchorMark, nr)
		sc.bfsMark = growMarks(sc.bfsMark, nr)
		sc.bfsDist = growMarks(sc.bfsDist, nr)
	}
}

// growMarks grows an epoch-stamped mark array; fresh entries are zero,
// which no live epoch ever equals.
func growMarks(a []int32, n int) []int32 {
	na := make([]int32, n)
	copy(na, a)
	return na
}

// addClique assigns (or returns) the local id of an interned clique.
func (sc *decideScratch) addClique(cacheID int) int32 {
	if cacheID >= len(sc.localOf) {
		sc.localOf = append(sc.localOf, make([]int32, cacheID+1-len(sc.localOf))...)
		sc.localMark = growMarks(sc.localMark, cacheID+1)
	}
	if sc.localMark[cacheID] == sc.epoch {
		return sc.localOf[cacheID]
	}
	i := int32(len(sc.cliqueIDs))
	sc.localMark[cacheID] = sc.epoch
	sc.localOf[cacheID] = i
	sc.cliqueIDs = append(sc.cliqueIDs, int32(cacheID))
	if int(i) < len(sc.adjRows) {
		sc.adjRows[i] = sc.adjRows[i][:0]
	} else {
		sc.adjRows = append(sc.adjRows, make([]int32, 0, 4))
	}
	if int(i) >= len(sc.inWalked) {
		sc.inWalked = append(sc.inWalked, 0)
		sc.inDiam = append(sc.inDiam, 0)
	}
	return i
}

// insertNb inserts b into a's sorted forest-neighbor row, ignoring
// duplicates — the slice equivalent of the old adjacency-set insert,
// with the sort the old neighbors() accessor performed paid once here.
func (sc *decideScratch) insertNb(a, b int32) {
	row := sc.adjRows[a]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == b {
		return
	}
	row = append(row, 0)
	copy(row[lo+1:], row[lo:])
	row[lo] = b
	sc.adjRows[a] = row
}

func (sc *decideScratch) degree(i int32) int { return len(sc.adjRows[i]) }

// trusted reports whether every member of the clique with local id i is
// far enough from the knowledge horizon that its neighborhood (and
// hence the clique's full forest adjacency) is known exactly. A member
// outside the ball or unreachable from the center is untrusted, exactly
// as the old BFS-distance map miss was.
func (sc *decideScratch) trusted(i int32) bool {
	for _, uIdx := range sc.cache.memberIdx[sc.cliqueIDs[i]] {
		r := sc.ball.RowOf(uIdx)
		if r < 0 {
			return false
		}
		d := sc.DistC[r]
		if d < 0 || int(d) > sc.horizon-3 {
			return false
		}
	}
	return true
}

// ensureNode merges φ(u) and the edges of T(u) (Lemma 2) into the view.
// Only valid for nodes within the trusted zone.
func (sc *decideScratch) ensureNode(u graph.ID, uIdx int32) error {
	if sc.ensMark[uIdx] == sc.epoch {
		return nil
	}
	sc.ensMark[uIdx] = sc.epoch
	nc, err := sc.cache.node(u)
	if err != nil {
		return err
	}
	sc.phiBuf = sc.phiBuf[:0]
	for _, cid := range nc.ids {
		sc.phiBuf = append(sc.phiBuf, sc.addClique(cid))
	}
	for _, e := range nc.edges {
		a, b := sc.phiBuf[e[0]], sc.phiBuf[e[1]]
		sc.insertNb(a, b)
		sc.insertNb(b, a)
	}
	return nil
}

// ensureClique expands T(u) for every member of the clique with local
// id i, making its forest adjacency exact (requires trusted(i)).
func (sc *decideScratch) ensureClique(i int32) error {
	cid := sc.cliqueIDs[i]
	set := sc.cache.sets[cid]
	mi := sc.cache.memberIdx[cid]
	for j, u := range set {
		if err := sc.ensureNode(u, mi[j]); err != nil {
			return err
		}
	}
	return nil
}

// pathEnds returns the (at most two) cliques of the own-path with fewer
// than two neighbors inside it; for a single clique it returns it
// twice. The center's own cliques hold local ids 0..len(own)-1 (they
// are the first ensure), so own-membership is an id comparison, and the
// ascending scan yields the ends already sorted.
func (sc *decideScratch) pathEnds() []int32 {
	own := sc.own
	sc.ends = sc.ends[:0]
	if len(own) == 1 {
		sc.ends = append(sc.ends, own[0], own[0])
		return sc.ends
	}
	m := int32(len(own))
	for _, ci := range own {
		inside := 0
		for _, nb := range sc.adjRows[ci] {
			if nb < m {
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
// 1 branch, 2 frontier) and the branch clique's local id (-1 if none).
func (sc *decideScratch) walkDirection(start int32) (int, int32, error) {
	cur := start
	for {
		next := int32(-1)
		for _, nb := range sc.adjRows[cur] {
			if sc.inWalked[nb] != sc.epoch {
				next = nb
				break
			}
		}
		if next == -1 {
			return 0, -1, nil // leaf end
		}
		if !sc.trusted(next) {
			sc.inWalked[next] = sc.epoch
			return 2, -1, nil // frontier
		}
		if err := sc.ensureClique(next); err != nil {
			return 0, -1, err
		}
		if sc.degree(next) > 2 {
			sc.inWalked[next] = sc.epoch
			return 1, next, nil // branch vertex
		}
		sc.walked = append(sc.walked, next)
		sc.inWalked[next] = sc.epoch
		cur = next
	}
}

// memberRows collects the deduplicated ball rows of the members of the
// given cliques. Walked cliques are trusted, so every member is in the
// ball; the r < 0 skip mirrors the old InducedSubgraph's silent drop of
// absent nodes all the same.
func (sc *decideScratch) memberRows(cliques []int32) []int32 {
	sc.memRows = sc.memRows[:0]
	for _, ci := range cliques {
		for _, uIdx := range sc.cache.memberIdx[sc.cliqueIDs[ci]] {
			r := sc.ball.RowOf(uIdx)
			if r < 0 || sc.memMark[r] == sc.epoch {
				continue
			}
			sc.memMark[r] = sc.epoch
			sc.memRows = append(sc.memRows, r)
		}
	}
	return sc.memRows
}

// walkedDiameter computes the anchored diameter of the walked path: the
// maximum distance from a member of the two extreme cliques to any
// member of the walked cliques, unreachable members ignored. For pairs
// below the 3k threshold, ball distances equal true distances (shortest
// paths fit inside the 10k ball). Membership is rebuilt from the walked
// slice alone — the walk's inWalked marks also hold consumed
// frontier/branch cliques, which are not part of the path being
// measured.
//
// Each anchor's BFS stays inside the members M (memberBFS): the walked
// cliques are trusted, so they form a path W of the true clique forest
// of G_i, and a node x outside M has all its cliques in one subtree of
// the forest minus W, hanging off W through one separator clique S that
// holds every M-neighbor of x. A member-to-member path that leaves M
// therefore leaves and re-enters through S and shortcuts to one edge,
// so member distances in the ball equal those in the ball restricted
// to M.
func (sc *decideScratch) walkedDiameter() int {
	members := len(sc.memberRows(sc.walked))
	for _, ci := range sc.walked {
		sc.inDiam[ci] = sc.epoch
	}
	best := 0
	for _, ci := range sc.walked {
		inside := 0
		for _, nb := range sc.adjRows[ci] {
			if sc.inDiam[nb] == sc.epoch {
				inside++
			}
		}
		if inside > 1 {
			continue
		}
		// Extreme clique: BFS from each member (deduplicated across
		// cliques — the max over repeated anchors cannot change it).
		for _, uIdx := range sc.cache.memberIdx[sc.cliqueIDs[ci]] {
			r := sc.ball.RowOf(uIdx)
			if r < 0 || sc.anchorMark[r] == sc.epoch {
				continue
			}
			sc.anchorMark[r] = sc.epoch
			if d := sc.memberBFS(r, members); d > best {
				best = d
			}
		}
	}
	return best
}

// anchoredDiameterProbe, when non-nil, receives every anchored diameter
// the kernel measures, with the scratch still holding the walk that
// produced it. Tests install it to check walkedDiameter against a
// whole-ball BFS; it must be safe for concurrent use.
var anchoredDiameterProbe func(sc *decideScratch, d int)

// memberBFS runs a BFS from the member row src over the ball rows of
// the current member set (memMark) and returns the largest distance it
// reaches. It stops as soon as all member rows are reached; visited
// marks carry a per-BFS stamp, so no per-BFS reset is needed.
func (sc *decideScratch) memberBFS(src int32, members int) int {
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
		for _, u := range sc.ball.Row(v) {
			if sc.memMark[u] != sc.epoch || sc.bfsMark[u] == stamp {
				continue
			}
			sc.bfsMark[u] = stamp
			sc.bfsDist[u] = d
			q = append(q, u)
		}
	}
	sc.bfsQueue = q
	// BFS appends rows in nondecreasing distance order.
	return int(sc.bfsDist[q[len(q)-1]])
}

// decideCenter determines, purely from the center's G_i-restricted ball
// view, whether it is peeled in the current iteration under the given
// rule, and if so returns its parent's snapshot index (-1 = ⊥). ball
// must contain the center at snapshot index vIdx.
func decideCenter(sc *decideScratch, cache *cliqueCache, ball *view.Ball, v graph.ID, vIdx int32, rule decideRule, radius int) (bool, int32, error) {
	sc.beginCenter(cache, ball, radius)
	sc.CenterBFS(ball, ball.RowOf(vIdx))
	if err := sc.ensureNode(v, vIdx); err != nil {
		return false, -1, err
	}
	// The center's ensure ran first, so φ(v) occupies local ids
	// 0..len-1 in canonical order: exactly the old phi[v] snapshot.
	for i := int32(0); i < int32(len(sc.cliqueIDs)); i++ {
		sc.own = append(sc.own, i)
	}
	own := sc.own
	// Every clique containing v sits within Γ[v]; ensure their members
	// so degrees of φ(v) are exact, and require them all binary.
	for _, ci := range own {
		if !sc.trusted(ci) {
			// Cannot happen for radius ≥ 4; be conservative.
			return false, -1, nil
		}
		if err := sc.ensureClique(ci); err != nil {
			return false, -1, err
		}
	}
	for _, ci := range own {
		if sc.degree(ci) > 2 {
			return false, -1, nil
		}
	}

	// φ(v) induces a path in the forest; walk outward from its ends.
	sc.walked = append(sc.walked, own...)
	for _, ci := range sc.walked {
		sc.inWalked[ci] = sc.epoch
	}
	// endState: 0 leaf, 1 branch (deg>=3), 2 frontier (untrusted).
	var ends [2]int
	attach := [2]int32{-1, -1} // branch clique local id per end
	endIdx := 0
	for _, start := range sc.pathEnds() {
		state, att, err := sc.walkDirection(start)
		if err != nil {
			return false, -1, err
		}
		ends[endIdx] = state
		attach[endIdx] = att
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
		rowPtr, cols := ball.CSR()
		sc.elim.MCS(rowPtr, cols, sc.memberRows(sc.walked))
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
		return false, -1, nil
	}

	// Parent (Definition 1): the closest attachment clique within k+3,
	// distances read off the center BFS already in DistC.
	parent := int32(-1)
	bestDist := 1 << 30
	for e := 0; e < 2; e++ {
		if attach[e] < 0 {
			continue
		}
		cid := sc.cliqueIDs[attach[e]]
		d := 1 << 30
		for _, uIdx := range cache.memberIdx[cid] {
			if r := ball.RowOf(uIdx); r >= 0 {
				if dd := int(sc.DistC[r]); dd >= 0 && dd < d {
					d = dd
				}
			}
		}
		if d <= rule.parentHorizon && d < bestDist {
			bestDist = d
			// The max-ID member: indices ascend with IDs.
			parent = cache.memberIdx[cid][len(cache.memberIdx[cid])-1]
		}
	}
	return true, parent, nil
}

// decideOne decides a single center, choosing its view: the iteration-
// shared G_i ball when the center's knowledge provably covers its
// component, an index-space rebuild of its own ball otherwise.
func decideOne(sc *decideScratch, cache *cliqueCache, sharedBall *view.Ball, ix *graph.Indexed, know *dist.Knowledge, undecidedIdx []bool, v graph.ID, vIdx int32, rule decideRule, radius int) (bool, int32, error) {
	if know.CoversComponent() {
		// The ball provably covers v's entire component, so the shared
		// remaining-graph view IS the component's share of G_i (other
		// components stay invisible: they are unreachable in the center
		// BFS, hence untrusted).
		return decideCenter(sc, cache, sharedBall, v, vIdx, rule, radius)
	}
	sc.Priv.BuildFromSource(know, ix.NumNodes(), radius, undecidedIdx)
	return decideCenter(sc, cache, &sc.Priv, v, vIdx, rule, radius)
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
// The returned results are aligned with centers; a non-nil error is the
// error of the earliest-index failing center and means no result
// should be applied — matching the sequential loop, which stopped at
// its first error without mutating anything.
//
// The observer (may be nil) sees the stage as a synthetic single-round
// engine run under the caller's current phase label: RunStart,
// RoundStart(0, shards), the per-shard Start/End brackets from the
// workers, then RoundEnd with Done = the number of centers peeled, and
// RunEnd — or no RoundEnd/RunEnd on error, like a failed engine run.
// An observer implementing dist.KernelObserver additionally sees the
// stage as one "decide" kernel span with per-shard busy/item counts
// (the span closes even on error, so partial launches stay visible).
//
//chordalvet:hotpath budget=28 decide kernel: per-center work must stay on scratch reuse
func runDecideStage(ix *graph.Indexed, know []*dist.Knowledge, cache *cliqueCache, sharedBall *view.Ball, scratches []*decideScratch, centers []int32, undecidedIdx []bool, rule decideRule, radius, shards int, o dist.RoundObserver, results []decideResult) ([]decideResult, error) {
	n := len(centers)
	if cap(results) < n {
		results = make([]decideResult, n)
	}
	results = results[:n]
	errPos := make([]int, shards)
	errs := make([]error, shards)
	ids := ix.IDs()
	ko, _ := o.(dist.KernelObserver)
	if o != nil {
		o.RunStart(n, 0)
		o.RoundStart(0, shards)
	}
	dist.RunKernel("decide", n, shards, ko, func(shard, lo, hi int) {
		if o != nil {
			o.ShardStart(shard)
		}
		sc := scratches[shard]
		for pos := lo; pos < hi; pos++ {
			vIdx := centers[pos]
			v := ids[vIdx]
			peel, parent, err := decideOne(sc, cache, sharedBall, ix, know[vIdx], undecidedIdx, v, vIdx, rule, radius)
			if err != nil {
				errPos[shard] = pos
				errs[shard] = err
				break
			}
			results[pos] = decideResult{peel: peel, parent: parent}
		}
		if o != nil {
			o.ShardEnd(shard)
		}
	})
	// First-error-wins in center index order: shards cover ascending
	// disjoint ranges, so the first shard with an error holds the
	// earliest failing center.
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			return results, &decideError{pos: errPos[s], node: ids[centers[errPos[s]]], err: errs[s]}
		}
	}
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
	return results, nil
}

// decideError carries the failing center so the caller can reproduce
// the sequential loop's "iteration %d node %d" wrapping.
type decideError struct {
	pos  int
	node graph.ID
	err  error
}

func (e *decideError) Error() string { return e.err.Error() }
func (e *decideError) Unwrap() error { return e.err }
