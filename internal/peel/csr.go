package peel

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/dist"
	"repro/internal/graph"
)

// This file is the CSR engine behind Run: the peeling process executed
// entirely in snapshot-index space. One graph.Indexed snapshot is taken
// up front, or passed in as Options.Snapshot; each iteration rebuilds
// the clique forest over an alive mask (cliquetree.Builder), extracts
// the maximal binary paths with plain-array versions of the paths.go
// routines, and measures every path (capped diameter, independence
// number, subpath nodes) with per-worker epoch-stamped scratch. Path
// measurement is a pure per-path function of the snapshot, the alive
// mask, and the forest, so paths shard over CPUs (dist.RunKernel) into
// deterministic per-path result slots: outputs are bit-identical at
// every GOMAXPROCS and match the map-backed reference implementation
// (runReference) record for record. The records stay in the snapshot's
// index space, where they are computed.

// pathIdx is a maximal binary path in clique-id space (cliquetree.Path
// without the materialized int slices).
type pathIdx struct {
	off, ln                int32 // clique ids at engine.pathStore[off:off+ln]
	kind                   cliquetree.PathKind
	attachStart, attachEnd int32 // -1 when absent
	minClique              int32
}

// pathSlot is one path's measured result, written by exactly one worker.
type pathSlot struct {
	take bool
	rec  PathRecord
}

// peelScratch is one worker's reusable state: epoch-stamped node and
// clique marks, level-synchronous BFS storage, and the elimination
// kernel used for path independence numbers.
type peelScratch struct {
	epoch    int32   // per-path epoch for nodeMark
	nodeMark []int32 // path-membership marks by snapshot index

	seenEpoch int32 // per-BFS epoch for seen
	seen      []int32

	clEpoch int32
	clMark  []int32 // path-membership marks by clique id

	queue   []int32
	members []int32
	anchors []int32
	out     []int32
	elim    chordal.Elim
}

func (s *peelScratch) reset(n int) {
	if len(s.nodeMark) < n {
		s.nodeMark = make([]int32, n)
		s.seen = make([]int32, n)
	}
	if s.epoch == math.MaxInt32 {
		clear(s.nodeMark)
		s.epoch = 0
	}
	s.epoch++
}

func (s *peelScratch) nextSeen() int32 {
	if s.seenEpoch == math.MaxInt32 {
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.seenEpoch = 0
	}
	s.seenEpoch++
	return s.seenEpoch
}

func (s *peelScratch) resetCliques(nc int) {
	if len(s.clMark) < nc {
		s.clMark = make([]int32, nc)
	}
	if s.clEpoch == math.MaxInt32 {
		for i := range s.clMark {
			s.clMark[i] = 0
		}
		s.clEpoch = 0
	}
	s.clEpoch++
}

// engine holds the per-run state of the CSR peeling process.
type engine struct {
	ix      *graph.Indexed
	alive   []bool
	nAlive  int
	builder *cliquetree.Builder
	f       cliquetree.CSRForest

	// Binary-path extraction scratch (sequential per iteration).
	isBinary  []bool
	seenCl    []bool
	inComp    []bool
	comp      []int32
	ends      []int32
	pathStore []int32
	paths     []pathIdx
	slots     []pathSlot
	taken     []PathRecord // the iteration's taken records, before the copy

	scratches []*peelScratch
}

// Run executes the peeling process on a chordal graph.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	ix := opts.Snapshot
	if ix == nil {
		ix = graph.NewIndexed(g)
	}
	n := ix.NumNodes()
	e := &engine{
		ix:      ix,
		alive:   make([]bool, n),
		nAlive:  n,
		builder: cliquetree.NewBuilder(ix),
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	res := &Result{Snapshot: ix, NodeLayer: make([]int32, n)}
	iteration := 0
	for e.nAlive > 0 {
		iteration++
		if opts.MaxIterations > 0 && iteration > opts.MaxIterations {
			break
		}
		if err := e.builder.Build(e.alive, e.nAlive, &e.f); err != nil {
			return nil, fmt.Errorf("peel iteration %d: %w", iteration, err)
		}
		if !opts.NoForests {
			res.Forests = append(res.Forests, cliquetree.ToForest(&e.f, ix.IDs()))
		}
		if iteration == 1 {
			for c := range int32(e.f.NumCliques) {
				res.Omega = max(res.Omega, len(e.f.Clique(c)))
			}
		}
		last := opts.MaxIterations > 0 && iteration == opts.MaxIterations
		layer := e.peelOnce(iteration, opts, last)
		// The paths' W's are disjoint: a node's subtree lies on one path.
		peeled := 0
		for _, p := range layer.Paths {
			for _, x := range p.Nodes {
				e.alive[x] = false
				res.NodeLayer[x] = int32(iteration)
			}
			peeled += len(p.Nodes)
		}
		if peeled == 0 && !last {
			// A nonempty forest always has pendant paths, so this cannot
			// happen; guard against looping forever.
			return nil, fmt.Errorf("peel iteration %d removed nothing", iteration)
		}
		res.Layers = append(res.Layers, layer)
		e.nAlive -= peeled
		if opts.Trace != nil {
			ev := LayerEvent{
				Iteration:     iteration,
				NodesPeeled:   peeled,
				ForestCliques: e.f.NumCliques,
				Remaining:     e.nAlive,
			}
			for _, p := range layer.Paths {
				if p.Kind == cliquetree.Pendant {
					ev.PendantPaths++
				} else {
					ev.InternalPaths++
				}
			}
			opts.Trace(ev)
		}
	}
	return res, nil
}

// peelOnce measures every maximal binary path of the current forest and
// assembles the iteration's layer. The take rules and recorded fields
// mirror the reference peelOnce exactly.
//
//chordalvet:hotpath budget=36 peel workers: path measurement reuses per-worker scratch
func (e *engine) peelOnce(iteration int, opts Options, last bool) Layer {
	e.extractPaths()
	diamCap := opts.InternalDiameter
	if diamCap < 8 {
		diamCap = 8
	}
	nPaths := len(e.paths)
	if cap(e.slots) < nPaths {
		e.slots = make([]pathSlot, nPaths)
	}
	e.slots = e.slots[:nPaths]
	for i := range e.slots {
		e.slots[i] = pathSlot{}
	}
	shards := dist.KernelShards(nPaths)
	for len(e.scratches) < shards {
		e.scratches = append(e.scratches, &peelScratch{})
	}
	dist.RunKernel("peel-measure", nPaths, shards, opts.Observer, func(shard, lo, hi int) {
		e.measureRange(lo, hi, e.scratches[shard], diamCap, opts, last)
	})
	e.taken = e.taken[:0]
	for i := range e.slots {
		if e.slots[i].take {
			e.taken = append(e.taken, e.slots[i].rec)
		}
	}
	return Layer{Index: iteration, Paths: slices.Clone(e.taken)}
}

// measureRange measures paths [lo, hi) into their slots.
func (e *engine) measureRange(lo, hi int, s *peelScratch, diamCap int, opts Options, last bool) {
	for i := lo; i < hi; i++ {
		e.measurePath(i, s, diamCap, opts, last)
	}
}

// measurePath decides and records one path. α is computed only where
// the α rule decides, for internal paths of the last iteration.
func (e *engine) measurePath(i int, s *peelScratch, diamCap int, opts Options, last bool) {
	p := &e.paths[i]
	slot := &e.slots[i]
	rec := &slot.rec
	cliques := e.pathStore[p.off : p.off+p.ln]
	s.reset(e.ix.NumNodes())
	s.resetCliques(e.f.NumCliques)

	// Path membership: the clique set and its node union V_P.
	members := s.members[:0]
	for _, c := range cliques {
		s.clMark[c] = s.clEpoch
		for _, v := range e.f.Clique(c) {
			if s.nodeMark[v] != s.epoch {
				s.nodeMark[v] = s.epoch
				members = append(members, v)
			}
		}
	}
	s.members = members

	rec.Kind = p.kind
	rec.Diameter = e.pathDiameter(cliques, members, s, diamCap)
	take := false
	switch p.kind {
	case cliquetree.Pendant:
		take = true
	case cliquetree.Internal:
		if last && opts.FinalAlpha > 0 {
			take = e.alphaOf(members, s) >= opts.FinalAlpha
		} else {
			take = opts.InternalDiameter > 0 && rec.Diameter >= opts.InternalDiameter
		}
	}
	if !take {
		return
	}
	slot.take = true

	// Subpath nodes: members whose entire phi row lies on the path.
	w := s.out[:0]
	for _, v := range members {
		all := true
		for _, c := range e.f.PhiRow(v) {
			if s.clMark[c] != s.clEpoch {
				all = false
				break
			}
		}
		if all {
			w = append(w, v)
		}
	}
	slices.Sort(w)
	s.out = w

	// Copy the record's rows out of the forest, which the next iteration
	// rebuilds, into one array: the cliques, the attachments, then W.
	size := len(w)
	for _, c := range cliques {
		size += len(e.f.Clique(c))
	}
	for _, a := range [2]int32{p.attachStart, p.attachEnd} {
		if a >= 0 {
			size += len(e.f.Clique(a))
		}
	}
	rows := make([]int32, 0, size)
	keep := func(row []int32) []int32 {
		rows = append(rows, row...)
		return rows[len(rows)-len(row) : len(rows) : len(rows)]
	}
	rec.Cliques = make([][]int32, len(cliques))
	for ci, c := range cliques {
		rec.Cliques[ci] = keep(e.f.Clique(c))
	}
	if p.attachStart >= 0 {
		rec.AttachStart = keep(e.f.Clique(p.attachStart))
	}
	if p.attachEnd >= 0 {
		rec.AttachEnd = keep(e.f.Clique(p.attachEnd))
	}
	rec.Nodes = keep(w)
}

// pathDiameter is PathDiameterCapped in index space: a level-synchronous
// BFS over the current (alive) graph from each node of the two end
// cliques. best accumulates across anchors and the early-outs match the
// reference, so the value is identical (it is a pure function of the
// same graph, member set, anchor set, and cap).
func (e *engine) pathDiameter(cliques, members []int32, s *peelScratch, cap int) int {
	first := e.f.Clique(cliques[0])
	lastC := e.f.Clique(cliques[len(cliques)-1])
	// Merge the two ascending rows, deduped: the reference Union.
	anchors := s.anchors[:0]
	ai, bi := 0, 0
	for ai < len(first) || bi < len(lastC) {
		switch {
		case bi >= len(lastC) || (ai < len(first) && first[ai] < lastC[bi]):
			anchors = append(anchors, first[ai])
			ai++
		case ai >= len(first) || lastC[bi] < first[ai]:
			anchors = append(anchors, lastC[bi])
			bi++
		default:
			anchors = append(anchors, first[ai])
			ai++
			bi++
		}
	}
	s.anchors = anchors
	best := 0
	for _, a := range anchors {
		stamp := s.nextSeen()
		reached := 0
		q := append(s.queue[:0], a)
		s.seen[a] = stamp
		if s.nodeMark[a] == s.epoch {
			reached++
		}
		levelStart, levelEnd := 0, 1
		for depth := 0; depth < cap && levelEnd > levelStart && reached < len(members); depth++ {
			for i := levelStart; i < levelEnd; i++ {
				v := q[i]
				for _, u := range e.ix.NeighborIndices(int(v)) {
					if !e.alive[u] || s.seen[u] == stamp {
						continue
					}
					s.seen[u] = stamp
					q = append(q, u)
					if s.nodeMark[u] == s.epoch {
						reached++
						if depth+1 > best {
							best = depth + 1
						}
					}
				}
			}
			levelStart, levelEnd = levelEnd, len(q)
		}
		s.queue = q[:0]
		if reached < len(members) {
			// Some path member is farther than cap from this anchor.
			return cap
		}
		if best >= cap {
			return cap
		}
	}
	return best
}

// alphaOf computes α of the subgraph induced by members: MCS restricted
// to the member set yields a perfect elimination order, then Gavril's
// greedy scan counts a maximum independent set. Both are exact on
// chordal inputs regardless of tie-breaking, and the member subgraph is
// chordal (the forest build verified the alive graph), so the value
// matches the reference's PathIndependenceNumber.
func (e *engine) alphaOf(members []int32, s *peelScratch) int {
	_, rowPtr, cols := e.ix.CSR()
	s.elim.MCS(rowPtr, cols, members)
	return s.elim.Alpha()
}

// extractPaths computes the maximal binary paths of the current forest,
// mirroring Forest.MaximalBinaryPaths/orderPath in index space: the
// degree-≤2 components are discovered from their ascending clique ids,
// linearized from the smallest endpoint, oriented (pendant leaf-first)
// and classified identically, then sorted by smallest clique id.
func (e *engine) extractPaths() {
	nc := e.f.NumCliques
	if cap(e.isBinary) < nc {
		e.isBinary = make([]bool, nc)
		e.seenCl = make([]bool, nc)
		e.inComp = make([]bool, nc)
	}
	e.isBinary = e.isBinary[:nc]
	e.seenCl = e.seenCl[:nc]
	e.inComp = e.inComp[:nc]
	for i := 0; i < nc; i++ {
		e.isBinary[i] = e.f.Deg(int32(i)) <= 2
		e.seenCl[i] = false
		e.inComp[i] = false
	}
	e.paths = e.paths[:0]
	e.pathStore = e.pathStore[:0]
	for start := 0; start < nc; start++ {
		if !e.isBinary[start] || e.seenCl[start] {
			continue
		}
		comp := e.comp[:0]
		comp = append(comp, int32(start))
		e.seenCl[start] = true
		for i := 0; i < len(comp); i++ {
			for _, nb := range e.f.Nbrs(comp[i]) {
				if e.isBinary[nb] && !e.seenCl[nb] {
					e.seenCl[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		e.comp = comp
		e.orderPath(comp)
	}
	sort.Slice(e.paths, func(i, j int) bool { return e.paths[i].minClique < e.paths[j].minClique })
}

// orderPath linearizes one binary component into e.paths/e.pathStore.
func (e *engine) orderPath(comp []int32) {
	for _, c := range comp {
		e.inComp[c] = true
	}
	insideDeg := func(c int32) int {
		d := 0
		for _, nb := range e.f.Nbrs(c) {
			if e.inComp[nb] {
				d++
			}
		}
		return d
	}
	ends := e.ends[:0]
	for _, c := range comp {
		if insideDeg(c) <= 1 {
			ends = append(ends, c)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	e.ends = ends
	start := ends[0] // single vertex: its own endpoint (degree 0)

	off := int32(len(e.pathStore))
	prev := int32(-1)
	cur := start
	for {
		e.pathStore = append(e.pathStore, cur)
		next := int32(-1)
		for _, nb := range e.f.Nbrs(cur) {
			if e.inComp[nb] && nb != prev {
				next = nb
				break
			}
		}
		if next == -1 {
			break
		}
		prev, cur = cur, next
	}
	ordered := e.pathStore[off:]

	attachOf := func(c, exclude int32) int32 {
		for _, nb := range e.f.Nbrs(c) {
			if !e.inComp[nb] && nb != exclude {
				return nb
			}
		}
		return -1
	}
	p := pathIdx{off: off, ln: int32(len(ordered))}
	if len(ordered) == 1 {
		// A single binary vertex can attach to zero, one, or two outside
		// vertices; distinguish them so lone leaves stay pendant.
		p.attachStart = attachOf(ordered[0], -1)
		p.attachEnd = attachOf(ordered[0], p.attachStart)
		if p.attachEnd == -1 {
			// At most one attachment: keep it at the end (leaf-first).
			p.attachStart, p.attachEnd = -1, p.attachStart
		}
	} else {
		p.attachStart = attachOf(ordered[0], -1)
		p.attachEnd = attachOf(ordered[len(ordered)-1], -1)
	}
	if p.attachStart != -1 && p.attachEnd != -1 {
		p.kind = cliquetree.Internal
	} else {
		p.kind = cliquetree.Pendant
		// Orient pendant paths leaf-first.
		if p.attachStart != -1 {
			for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
			p.attachStart, p.attachEnd = p.attachEnd, p.attachStart
		}
	}
	p.minClique = ordered[0]
	for _, c := range ordered {
		if c < p.minClique {
			p.minClique = c
		}
	}
	for _, c := range comp {
		e.inComp[c] = false
	}
	e.paths = append(e.paths, p)
}
