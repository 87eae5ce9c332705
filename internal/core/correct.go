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

// This file is Algorithm 1's step 3, the Lemma-10 color correction, in
// snapshot-index space. For one peeled path with node set W, W′ is W's
// neighborhood in strictly higher layers; the strip W ∪ W′ is an
// interval graph whose clique path is the peeled path flanked by its
// attachment cliques, restricted to the strip. W′ and the part of W
// farther than k+3 from W′ keep their colors; the zone within k+3 is
// recolored with the global palette by ExtendColoring's left-endpoint
// backtracking. The map-backed correctPath in the package tests is the
// oracle this kernel is checked against, byte for byte.

// corrector is the state of one coloring's correction phase: the
// peeled paths in layer order (layer li's are refs[layerStart[li]:
// layerStart[li+1]]), every color by snapshot index (0 = uncolored),
// each node's layer, and each path's W by index — path i's is
// w[wOff[i]:wOff[i+1]], ascending.
type corrector struct {
	ix              *graph.Indexed
	refs            []*peel.PathRecord
	layerStart      []int
	layerOf, colors []int32
	w, wOff         []int32
	horizon         int
	palette         int32
	scratches       []*correctScratch
	slots           []correctSlot
}

// newCorrector lays peeled out over ix, g's snapshot, with every node
// uncolored, for parameter k and the given palette.
func newCorrector(ix *graph.Indexed, peeled *peel.Result, k, palette int) *corrector {
	n := ix.NumNodes()
	cr := &corrector{
		ix:         ix,
		layerStart: make([]int, len(peeled.Layers)+1),
		layerOf:    make([]int32, n),
		colors:     make([]int32, n),
		w:          make([]int32, 0, n),
		wOff:       []int32{0},
		horizon:    k + 3,
		palette:    int32(palette),
	}
	for li := range peeled.Layers {
		layer := &peeled.Layers[li]
		for pi := range layer.Paths {
			rec := &layer.Paths[pi]
			cr.refs = append(cr.refs, rec)
			for _, v := range rec.Nodes {
				x, _ := ix.IndexOf(v)
				cr.layerOf[x] = int32(layer.Index)
				cr.w = append(cr.w, int32(x))
			}
			cr.wOff = append(cr.wOff, int32(len(cr.w)))
		}
		cr.layerStart[li+1] = len(cr.refs)
	}
	return cr
}

// correctSlot is one path's outcome: its recolorings are
// scratches[shard].out{Idx,Color}[off:off+n].
type correctSlot struct {
	shard, off, n int32
	err           error
}

// correctLayer corrects the paths of layer li, whose index is layer,
// against the colors of the layers above it. They run
// sharded over CPUs as one "correct-paths" kernel launch: the paths of a
// layer write disjoint W's, and each reads only its own W and strictly
// higher layers, which are final by then, so every path is a pure
// function of state no other path of the launch writes. The slots merge
// in path order, so the colors — and which error surfaces first — are
// the sequential loop's at every GOMAXPROCS.
func (cr *corrector) correctLayer(li int, layer int32, ko dist.KernelObserver) error {
	lo := cr.layerStart[li]
	np := cr.layerStart[li+1] - lo
	shards := dist.KernelShards(np)
	for len(cr.scratches) < shards {
		cr.scratches = append(cr.scratches, &correctScratch{})
	}
	for _, s := range cr.scratches[:shards] {
		s.outIdx, s.outColor = s.outIdx[:0], s.outColor[:0]
	}
	if cap(cr.slots) < np {
		cr.slots = make([]correctSlot, np)
	}
	cr.slots = cr.slots[:np]
	dist.RunKernel("correct-paths", np, shards, ko, func(shard, plo, phi int) {
		s := cr.scratches[shard]
		for i := plo; i < phi; i++ {
			p := lo + i
			off := len(s.outIdx)
			err := s.correctPath(cr, cr.refs[p], cr.w[cr.wOff[p]:cr.wOff[p+1]], layer)
			cr.slots[i] = correctSlot{shard: int32(shard), off: int32(off), n: int32(len(s.outIdx) - off), err: err}
		}
	})
	for i := range cr.slots {
		slot := &cr.slots[i]
		if slot.err != nil {
			return slot.err
		}
		s := cr.scratches[slot.shard]
		for j := slot.off; j < slot.off+slot.n; j++ {
			cr.colors[s.outIdx[j]] = s.outColor[j]
		}
	}
	return nil
}

// correctScratch is one correct-paths shard's reusable state. Strip
// membership is an epoch stamp by snapshot index, with loc giving a
// member's strip position; the other arrays are indexed by strip
// position and grow to the largest strip seen.
type correctScratch struct {
	epoch      int32
	stamp, loc []int32 // by snapshot index

	strip  []int32 // W ∪ W′ by snapshot index, ascending
	wPrime []int32 // W′, sorted, then the zone BFS queue
	reach  []int32 // BFS depth from W′, -1 when unreached
	color  []int32 // fixed or assigned color, 0 when unset
	first  []int32 // first and last clique of the strip path, -1 / 0 when in none
	last   []int32

	cl, clOff []int32 // the strip path: clique i is cl[clOff[i]:clOff[i+1]], strip positions ascending
	free      []int32 // the zone in left-endpoint order
	tried     []int32 // by free position: the color it holds or last held
	usedEpoch int32
	used      []int32 // by color: == usedEpoch when a neighbor holds it

	outIdx, outColor []int32 // the current launch's recolorings, path after path
}

// correctPath resolves the conflicts of one peeled path against its
// higher-layer neighborhood W′ (Lemma 10), appending the zone's new
// colors to s.outIdx/s.outColor. w is the path's W by snapshot index,
// ascending. The error texts are ExtendColoring's.
//
//chordalvet:hotpath budget=27 correct-paths: per-path work reuses shard scratch
func (s *correctScratch) correctPath(cr *corrector, rec *peel.PathRecord, w []int32, layer int32) error {
	ix := cr.ix
	s.nextEpoch(ix.NumNodes())
	ep := s.epoch
	for _, x := range w {
		s.stamp[x] = ep
	}
	wPrime := s.wPrime[:0]
	for _, x := range w {
		for _, u := range ix.NeighborIndices(int(x)) {
			if s.stamp[u] != ep && cr.layerOf[u] > layer {
				s.stamp[u] = ep
				wPrime = append(wPrime, u)
			}
		}
	}
	s.wPrime = wPrime
	if len(wPrime) == 0 {
		return nil
	}
	slices.Sort(wPrime)

	// The strip, ascending: W merged with W′.
	m := len(w) + len(wPrime)
	s.grow(m)
	strip := s.strip[:0]
	for a, b := 0, 0; a < len(w) || b < len(wPrime); {
		if b == len(wPrime) || (a < len(w) && w[a] < wPrime[b]) {
			strip = append(strip, w[a])
			a++
		} else {
			strip = append(strip, wPrime[b])
			b++
		}
	}
	s.strip = strip
	for p, x := range strip {
		s.loc[x] = int32(p)
		s.reach[p] = -1
	}

	// The zone: strip nodes within horizon of W′, W′ itself excluded
	// (RecolorZone); it lies inside W.
	queue := wPrime
	for _, x := range queue {
		s.reach[s.loc[x]] = 0
	}
	zone := 0
	for d, head := int32(1), 0; int(d) <= cr.horizon && head < len(queue); d++ {
		end := len(queue)
		for ; head < end; head++ {
			for _, u := range ix.NeighborIndices(int(queue[head])) {
				if s.stamp[u] == ep && s.reach[s.loc[u]] < 0 {
					s.reach[s.loc[u]] = d
					queue = append(queue, u)
					zone++
				}
			}
		}
	}
	s.wPrime = queue
	if zone == 0 {
		return nil
	}

	// Everything outside the zone keeps its color and must fit the
	// palette and agree along every edge. Both checks walk ascending
	// IDs, as ExtendColoring does.
	ids := ix.IDs()
	for p, x := range strip {
		s.color[p] = 0
		if s.reach[p] > 0 {
			continue
		}
		c := cr.colors[x]
		if c < 1 || c > cr.palette {
			return fmt.Errorf("fixed color %d of node %d outside palette [1,%d]", c, ids[x], cr.palette)
		}
		s.color[p] = c
	}
	for p, x := range strip {
		if s.color[p] == 0 {
			continue
		}
		for _, u := range ix.NeighborIndices(int(x)) {
			if s.stamp[u] == ep && s.color[s.loc[u]] == s.color[p] {
				return fmt.Errorf("fixed colors conflict on edge %d-%d", ids[x], ids[u])
			}
		}
	}

	// The zone in left-endpoint order along the strip's clique path.
	s.stripPath(ix, rec)
	for p := range m {
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
	for p := range m {
		if s.reach[p] > 0 {
			s.first[p] = max(s.first[p], 0)
			free = append(free, int32(p))
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
	if err := s.extend(ix, cr.palette); err != nil {
		return err
	}
	for _, p := range free {
		s.outIdx = append(s.outIdx, strip[p])
		s.outColor = append(s.outColor, s.color[p])
	}
	return nil
}

// stripPath lays out the strip's clique path per Lemma 8 in s.cl and
// s.clOff: the peeled path flanked by its attachment cliques, restricted
// to the stamped nodes as interval.RestrictCliquePath restricts it.
func (s *correctScratch) stripPath(ix *graph.Indexed, rec *peel.PathRecord) {
	s.cl = s.cl[:0]
	s.clOff = append(s.clOff[:0], 0)
	if rec.AttachStart != nil {
		s.pushClique(ix, rec.AttachStart)
	}
	for _, c := range rec.Cliques {
		s.pushClique(ix, c)
	}
	if rec.AttachEnd != nil {
		s.pushClique(ix, rec.AttachEnd)
	}
}

// pushClique appends clique c of the strip's full path restricted to
// the strip, by interval.RestrictCliquePath's rule: an empty
// restriction is dropped, and while two neighbors nest the first such
// pair from the left loses its smaller member (the left one when they
// are equal). The path so far never holds a nested pair, so the first
// nested pair is always the top of the path and the new clique.
func (s *correctScratch) pushClique(ix *graph.Indexed, c graph.Set) {
	start := len(s.cl)
	for _, v := range c {
		if x, ok := ix.IndexOf(v); ok && s.stamp[x] == s.epoch {
			s.cl = append(s.cl, s.loc[x])
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

// extend colors s.free in order with the smallest color no colored
// neighbor holds, backtracking when a node has none left — the
// depth-first search of ExtendColoring's backtrack, unrolled onto
// s.tried, with the same step budget and error texts.
func (s *correctScratch) extend(ix *graph.Indexed, palette int32) error {
	if len(s.used) <= int(palette) {
		s.used = make([]int32, palette+1)
		s.usedEpoch = 0
	}
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
// strip neighbor of position p holds, or 0 when the palette has none.
func (s *correctScratch) nextColor(ix *graph.Indexed, p, after, palette int32) int32 {
	if s.usedEpoch == math.MaxInt32 {
		clear(s.used)
		s.usedEpoch = 0
	}
	s.usedEpoch++
	for _, u := range ix.NeighborIndices(int(s.strip[p])) {
		if s.stamp[u] == s.epoch {
			if c := s.color[s.loc[u]]; c > 0 {
				s.used[c] = s.usedEpoch
			}
		}
	}
	for c := after + 1; c <= palette; c++ {
		if s.used[c] != s.usedEpoch {
			return c
		}
	}
	return 0
}

// nextEpoch starts a path on an n-node snapshot.
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
