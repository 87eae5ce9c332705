package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/peel"
)

// This file is the strip kernel of both post-peel coloring stages, in
// snapshot-index space: "color-paths" runs ColIntGraph (colint.go) on
// every peeled path, and "correct-paths" is Algorithm 1's step 3, the
// Lemma-10 correction. For one peeled path with node set W, W′ is W's
// neighborhood in strictly higher layers; the strip W ∪ W′ is an
// interval graph whose clique path is the peeled path flanked by its
// attachment cliques, restricted to the strip. W′ and the part of W
// farther than k+3 from W′ keep their colors; the zone within k+3 is
// recolored with the global palette by the Lemma-9 search. The
// map-backed oracles in the package tests check it byte for byte.

// corrector is the state of one coloring's post-peel stages over the
// peel's snapshot: the peeled paths in layer order (layer li's are
// refs[layerStart[li]:layerStart[li+1]], path p's W is refs[p].Nodes),
// each node's layer (the peel's NodeLayer, read only) and every color
// by snapshot index (0 = uncolored).
type corrector struct {
	ix              *graph.Indexed
	refs            []*peel.PathRecord
	layerStart      []int
	layerOf, colors []int32
	horizon         int
	palette         int32
	scratches       []*correctScratch
	slots           []pathSlot
}

// newCorrector lays peeled out with every node uncolored, for parameter
// k and the given palette.
func newCorrector(peeled *peel.Result, k, palette int) *corrector {
	cr := &corrector{
		ix:         peeled.Snapshot,
		layerStart: make([]int, len(peeled.Layers)+1),
		layerOf:    peeled.NodeLayer,
		colors:     make([]int32, peeled.Snapshot.NumNodes()),
		horizon:    k + 3,
		palette:    int32(palette),
	}
	for li := range peeled.Layers {
		layer := &peeled.Layers[li]
		for pi := range layer.Paths {
			cr.refs = append(cr.refs, &layer.Paths[pi])
		}
		cr.layerStart[li+1] = len(cr.refs)
	}
	return cr
}

// pathSlot is one path's outcome in a launch: its new colors are
// scratches[shard].out{Idx,Color}[off:off+n].
type pathSlot struct {
	shard, off, n, rounds int32
	err                   error
}

// launch runs paths lo, …, lo+np−1 as one sharded kernel launch, one
// strip kernel per shard: run handles path p, appending its new colors
// to the scratch's outIdx/outColor, and returns its LOCAL round count.
// The paths of a launch write disjoint W's and read nothing another
// writes, so the slots, merged into cr.colors in path order, give the
// sequential loop's colors and first error (with its path) at every
// GOMAXPROCS. It returns the largest round count.
func (cr *corrector) launch(kernel string, lo, np int, ko dist.KernelObserver, run func(s *correctScratch, p int) (int, error)) (rounds, failed int, err error) {
	shards := dist.KernelShards(np)
	for len(cr.scratches) < shards {
		cr.scratches = append(cr.scratches, &correctScratch{})
	}
	for _, s := range cr.scratches[:shards] {
		s.outIdx, s.outColor = s.outIdx[:0], s.outColor[:0]
	}
	if cap(cr.slots) < np {
		cr.slots = make([]pathSlot, np)
	}
	cr.slots = cr.slots[:np]
	dist.RunKernel(kernel, np, shards, ko, func(shard, plo, phi int) {
		s := cr.scratches[shard]
		for i := plo; i < phi; i++ {
			off := len(s.outIdx)
			r, err := run(s, lo+i)
			cr.slots[i] = pathSlot{shard: int32(shard), off: int32(off), n: int32(len(s.outIdx) - off), rounds: int32(r), err: err}
		}
	})
	for i, slot := range cr.slots {
		if slot.err != nil {
			return 0, lo + i, slot.err
		}
		s := cr.scratches[slot.shard]
		for j := slot.off; j < slot.off+slot.n; j++ {
			cr.colors[s.outIdx[j]] = s.outColor[j]
		}
		rounds = max(rounds, int(slot.rounds))
	}
	return rounds, 0, nil
}

// correctLayer corrects the paths of layer li, whose index is layer,
// against the colors of the layers above it, which are final by then,
// as one "correct-paths" launch.
func (cr *corrector) correctLayer(li int, layer int32, ko dist.KernelObserver) error {
	lo := cr.layerStart[li]
	_, _, err := cr.launch("correct-paths", lo, cr.layerStart[li+1]-lo, ko, func(s *correctScratch, p int) (int, error) {
		return 0, s.correctPath(cr, cr.refs[p], layer)
	})
	return err
}

// correctScratch is one shard's strip kernel. The current members are
// an epoch stamp by snapshot index; loc gives a node's strip position,
// by which the other arrays are indexed. ColIntGraph stamps each block
// and cut repair inside its path's strip in turn, so positions and the
// colors at them carry over from one member set to the next.
type correctScratch struct {
	epoch      int32
	stamp, loc []int32 // by snapshot index

	strip []int32 // the strip's nodes by snapshot index, ascending
	queue []int32 // W′ or a cut's crossing clique, then the BFS queue
	reach []int32 // BFS depth, -1 when unreached; > 0 marks a free node
	color []int32 // fixed or assigned color, 0 when unset
	first []int32 // first and last clique on the clique path, -1 / 0 when in none
	last  []int32

	cl, clOff []int32 // the clique path: clique i is cl[clOff[i]:clOff[i+1]], strip positions ascending
	pos       []int32 // pushClique's clique by strip position
	free      []int32 // the free members in left-endpoint order
	tried     []int32 // by free position: the color it holds or last held
	taken     []int32 // nextColor's neighbor colors

	// ColIntGraph's per-path state (colint.go): the path's own clique
	// path, as cl/clOff, and each node's first and last clique on it.
	wcl, wclOff   []int32
	wfirst, wlast []int32 // by strip position, -1 / 0 when on no clique
	occur         []int32 // by strip position: cliques led so far
	chain         []graph.ID
	blocks        [][2]int
	members       []int32 // the current repair strip, by snapshot index
	bm, bmOff     []int32 // block b's nodes are bm[bmOff[b]:bmOff[b+1]], by snapshot index, ascending

	outIdx, outColor []int32 // the current launch's output, path after path
}

// correctPath resolves the conflicts of one peeled path against its
// higher-layer neighborhood W′ (Lemma 10), appending the zone's new
// colors to s.outIdx/s.outColor. The error texts are ExtendColoring's.
//
//chordalvet:hotpath budget=25 correct-paths: per-path work reuses shard scratch
func (s *correctScratch) correctPath(cr *corrector, rec *peel.PathRecord, layer int32) error {
	ix, w := cr.ix, rec.Nodes
	s.nextEpoch(ix.NumNodes())
	ep := s.epoch
	for _, x := range w {
		s.stamp[x] = ep
	}
	wPrime := s.queue[:0]
	for _, x := range w {
		for _, u := range ix.NeighborIndices(int(x)) {
			if s.stamp[u] != ep && cr.layerOf[u] > layer {
				s.stamp[u] = ep
				wPrime = append(wPrime, u)
			}
		}
	}
	s.queue = wPrime
	if len(wPrime) == 0 {
		return nil
	}

	// The strip W ∪ W′, ascending, with every color as it stands; the
	// zone within horizon of W′ lies inside W.
	s.strip = s.strip[:0]
	s.strip = append(s.strip, w...)
	s.strip = append(s.strip, wPrime...)
	slices.Sort(s.strip)
	s.grow(len(s.strip))
	for p, x := range s.strip {
		s.loc[x] = int32(p)
		s.reach[p] = -1
		s.color[p] = cr.colors[x]
	}
	if s.zone(ix, cr.horizon) == 0 {
		return nil
	}
	s.stripPath(rec)
	if err := s.recolor(ix, s.strip, cr.palette); err != nil {
		return err
	}
	for _, p := range s.free {
		s.outIdx = append(s.outIdx, s.strip[p])
		s.outColor = append(s.outColor, s.color[p])
	}
	return nil
}

// zone grows a Lemma-10 zone over the current members, all at reach -1,
// from the boundary in s.queue out to horizon, and returns how many
// members it reached beyond the boundary: the free ones.
func (s *correctScratch) zone(ix *graph.Indexed, horizon int) int {
	for _, x := range s.queue {
		s.reach[s.loc[x]] = 0
	}
	boundary := len(s.queue)
	s.bfs(ix, int32(horizon), -1)
	return len(s.queue) - boundary
}

// bfs searches the current members breadth-first from s.queue (reach
// 0; every other member at -1) out to depth horizon, appending what it
// reaches to s.queue with its depth in s.reach. It stops at target (a
// snapshot index, or -1) and returns target's depth, or -1.
func (s *correctScratch) bfs(ix *graph.Indexed, horizon, target int32) int32 {
	for h := 0; h < len(s.queue); h++ {
		d := s.reach[s.loc[s.queue[h]]] + 1
		if d > horizon {
			break // the queue is in depth order
		}
		for _, u := range ix.NeighborIndices(int(s.queue[h])) {
			if s.stamp[u] == s.epoch && s.reach[s.loc[u]] < 0 {
				s.reach[s.loc[u]] = d
				s.queue = append(s.queue, u)
				if u == target {
					return d
				}
			}
		}
	}
	return -1
}

// stripPath lays out the strip's clique path per Lemma 8 in s.cl and
// s.clOff: the peeled path flanked by its attachment cliques, restricted
// to the current members as interval.RestrictCliquePath restricts it.
func (s *correctScratch) stripPath(rec *peel.PathRecord) {
	s.resetPath()
	s.pushClique(rec.AttachStart)
	for _, c := range rec.Cliques {
		s.pushClique(c)
	}
	s.pushClique(rec.AttachEnd)
}

// resetPath empties the clique path.
func (s *correctScratch) resetPath() {
	s.cl = s.cl[:0]
	s.clOff = append(s.clOff[:0], 0)
}

// pushClique appends clique c, by snapshot index (ascending), to the
// clique path, restricted to the current members.
func (s *correctScratch) pushClique(c []int32) {
	s.pos = s.pos[:0]
	for _, x := range c {
		if s.stamp[x] == s.epoch {
			s.pos = append(s.pos, s.loc[x])
		}
	}
	s.pushPositions(s.pos)
}

// pushPositions appends clique c, by strip position, restricted to the
// current members by interval.RestrictCliquePath's rule: an empty
// restriction is dropped, and while two neighbors nest the first such
// pair from the left loses its smaller member (the left one when they
// are equal). The path so far holds no nested pair, so that pair is
// always the top of the path and the new clique.
func (s *correctScratch) pushPositions(c []int32) {
	start := len(s.cl)
	for _, p := range c {
		if s.stamp[s.strip[p]] == s.epoch {
			s.cl = append(s.cl, p)
		}
	}
	if len(s.cl) == start {
		return
	}
	for top := len(s.clOff) - 1; top > 0; top = len(s.clOff) - 1 {
		prev, cur := s.cl[s.clOff[top-1]:s.clOff[top]], s.cl[s.clOff[top]:]
		if subsetSorted(prev, cur) {
			n := copy(s.cl[s.clOff[top-1]:], cur)
			s.cl = s.cl[:int(s.clOff[top-1])+n]
			s.clOff = s.clOff[:top]
			continue
		}
		if subsetSorted(cur, prev) {
			s.cl = s.cl[:s.clOff[top]]
			return
		}
		break
	}
	s.clOff = append(s.clOff, int32(len(s.cl)))
}

// subsetSorted reports whether every element of a is in b, both
// ascending.
func subsetSorted(a, b []int32) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// recolor is the Lemma-9 search: it colors the free members (reach > 0)
// from [1, palette] in left-endpoint order along s.cl, once every other
// member's color fits the palette and differs from its member
// neighbors'. Both checks walk members, the current members ascending,
// so an error names the lowest offender and a conflict's lower end.
func (s *correctScratch) recolor(ix *graph.Indexed, members []int32, palette int32) error {
	ids := ix.IDs()
	for _, x := range members {
		p := s.loc[x]
		if s.reach[p] > 0 {
			s.color[p] = 0
		} else if c := s.color[p]; c < 1 || c > palette {
			return fmt.Errorf("fixed color %d of node %d outside palette [1,%d]", c, ids[x], palette)
		}
	}
	for _, x := range members {
		c := s.color[s.loc[x]]
		if c == 0 {
			continue
		}
		for _, u := range ix.NeighborIndices(int(x)) {
			if s.stamp[u] == s.epoch && s.color[s.loc[u]] == c {
				return fmt.Errorf("fixed colors conflict on edge %d-%d", ids[x], ids[u])
			}
		}
	}

	// The free members in left-endpoint order: by first clique, then
	// last, then ID; a node on no clique counts as on the first.
	for _, x := range members {
		p := s.loc[x]
		s.first[p], s.last[p] = -1, 0
	}
	for i := range len(s.clOff) - 1 {
		for _, p := range s.cl[s.clOff[i]:s.clOff[i+1]] {
			if s.first[p] < 0 {
				s.first[p] = int32(i)
			}
			s.last[p] = int32(i)
		}
	}
	free := s.free[:0]
	for _, x := range members {
		if p := s.loc[x]; s.reach[p] > 0 {
			s.first[p] = max(s.first[p], 0)
			free = append(free, p)
		}
	}
	slices.SortFunc(free, func(a, b int32) int {
		if c := cmp.Compare(s.first[a], s.first[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(s.last[a], s.last[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.free = free
	return s.extend(ix, palette)
}

// extend colors s.free in order with the smallest color no colored
// neighbor holds, stepping back to the previous node's next color when a
// node has none left, for at most backtrackBudget steps.
func (s *correctScratch) extend(ix *graph.Indexed, palette int32) error {
	s.tried = slices.Grow(s.tried[:0], len(s.free))[:len(s.free)]
	budget := backtrackBudget
	for i, enter := 0, true; i < len(s.free); {
		p := s.free[i]
		if enter {
			budget--
			if budget <= 0 {
				return fmt.Errorf("recoloring search exceeded %d steps (palette %d)", backtrackBudget, palette)
			}
			s.tried[i] = 0
		}
		c := s.nextColor(ix, p, s.tried[i], palette)
		if c == 0 {
			s.color[p] = 0
			if i == 0 {
				return fmt.Errorf("no extension with %d colors exists", palette)
			}
			i, enter = i-1, false
			continue
		}
		s.tried[i], s.color[p] = c, c
		i, enter = i+1, true
	}
	return nil
}

// nextColor returns the smallest color above after that no colored
// member neighbor of position p holds, or 0 when the palette has none.
func (s *correctScratch) nextColor(ix *graph.Indexed, p, after, palette int32) int32 {
	s.taken = s.taken[:0]
	for _, u := range ix.NeighborIndices(int(s.strip[p])) {
		if s.stamp[u] == s.epoch {
			if c := s.color[s.loc[u]]; c > after {
				s.taken = append(s.taken, c)
			}
		}
	}
	slices.Sort(s.taken)
	c := after + 1
	for _, t := range s.taken {
		if t > c {
			break
		}
		if t == c {
			c++
		}
	}
	if c > palette {
		return 0
	}
	return c
}

// nextEpoch starts a member set on an n-node snapshot.
func (s *correctScratch) nextEpoch(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.loc = make([]int32, n)
		s.epoch = 0
	}
	if s.epoch == math.MaxInt32 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
}

// grow sizes the strip-position arrays for an m-node strip.
func (s *correctScratch) grow(m int) {
	if len(s.reach) < m {
		s.reach = make([]int32, m)
		s.color = make([]int32, m)
		s.first = make([]int32, m)
		s.last = make([]int32, m)
	}
}
