package core

import (
	"math"

	"repro/internal/chordal"
	"repro/internal/graph"
	"repro/internal/peel"
)

// This file is the small-component stage of Algorithm 6 (Section 7.1)
// in snapshot-index space: a component's CSR over its own positions,
// α from the elimination kernel, the anchor clique found by index marks,
// and the furthest-from-anchor simplicial elimination. The map-backed
// chordal.IndependenceNumber, and componentAnchor and AbsorbingMIS in
// the package tests, are the oracles it is checked against.

// misScratch is one mis-components shard's reusable state. Component
// membership is an epoch stamp by snapshot index, with loc giving a
// member's position; the other arrays are indexed by position and grow
// to the largest component seen.
type misScratch struct {
	epoch      int32
	stamp, loc []int32 // by snapshot index
	markEpoch  int32
	mark       []int32 // by snapshot index: == markEpoch on the marked clique

	rowPtr, cols, members []int32 // the component's CSR over positions 0..m-1
	elim                  chordal.Elim

	dist        []int32 // distance from the anchor, 0 when unreached
	seen        []bool
	alive, simp []bool
	nbrEpoch    int32
	nbr         []int32 // == nbrEpoch on the neighborhood being tested
	queue       []int32

	out []int32 // the current launch's sets by snapshot index, component after component
}

// absorbingComponent returns α of the component comp (snapshot indices,
// ascending) and, when α < d, appends its absorbing maximum independent
// set to s.out: anchored against the attachment clique of rec it
// touches, when anchored is set, and unanchored otherwise. The
// component's CSR stays loaded for the caller.
//
//chordalvet:hotpath budget=17 mis-components: per-component work reuses shard scratch
func (s *misScratch) absorbingComponent(ix *graph.Indexed, comp []int32, rec *peel.PathRecord, d int, anchored bool) int {
	s.load(ix, comp)
	alpha := s.alpha()
	if alpha >= d {
		return alpha
	}
	var anchor []int32
	if anchored {
		anchor = s.anchorOf(ix, comp, rec)
	}
	s.absorb(ix, comp, anchor)
	return alpha
}

// load builds the CSR of the subgraph induced by comp over its
// positions. Rows ascend, because snapshot rows do and positions follow
// indices.
func (s *misScratch) load(ix *graph.Indexed, comp []int32) {
	n := ix.NumNodes()
	if len(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.loc = make([]int32, n)
		s.mark = make([]int32, n)
		s.epoch, s.markEpoch = 0, 0
	}
	if s.epoch == math.MaxInt32 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
	for p, x := range comp {
		s.stamp[x] = s.epoch
		s.loc[x] = int32(p)
	}
	s.rowPtr = append(s.rowPtr[:0], 0)
	s.cols = s.cols[:0]
	s.members = s.members[:0]
	for p, x := range comp {
		for _, u := range ix.NeighborIndices(int(x)) {
			if s.stamp[u] == s.epoch {
				s.cols = append(s.cols, s.loc[u])
			}
		}
		s.rowPtr = append(s.rowPtr, int32(len(s.cols)))
		s.members = append(s.members, int32(p))
	}
}

func (s *misScratch) row(p int32) []int32 { return s.cols[s.rowPtr[p]:s.rowPtr[p+1]] }

// alpha returns α of the loaded component: Gavril's count over its MCS
// order, exact because the component is chordal (the peel verified the
// whole graph).
func (s *misScratch) alpha() int {
	s.elim.MCS(s.rowPtr, s.cols, s.members)
	return s.elim.Alpha()
}

// anchorOf returns the attachment clique of rec that the component
// touches — AttachStart when both do — or nil. When α < d it touches at
// most one (Section 7.1).
func (s *misScratch) anchorOf(ix *graph.Indexed, comp []int32, rec *peel.PathRecord) []int32 {
	if s.touches(ix, comp, rec.AttachStart) {
		return rec.AttachStart
	}
	if s.touches(ix, comp, rec.AttachEnd) {
		return rec.AttachEnd
	}
	return nil
}

// touches reports whether a member of comp has a neighbor in clique c.
func (s *misScratch) touches(ix *graph.Indexed, comp []int32, c []int32) bool {
	if len(c) == 0 {
		return false
	}
	s.markClique(c)
	for _, x := range comp {
		for _, u := range ix.NeighborIndices(int(x)) {
			if s.mark[u] == s.markEpoch {
				return true
			}
		}
	}
	return false
}

func (s *misScratch) markClique(c []int32) {
	if s.markEpoch == math.MaxInt32 {
		clear(s.mark)
		s.markEpoch = 0
	}
	s.markEpoch++
	for _, x := range c {
		s.mark[x] = s.markEpoch
	}
}

// absorb appends to s.out the maximum independent set AbsorbingMIS
// takes on the loaded component: repeatedly the simplicial vertex
// furthest from the anchor clique (smallest position on ties), with its
// neighbors removed. Distances run over the snapshot restricted to the
// component and the anchor, given by snapshot index; with no anchor, or
// where the anchor does not reach, they are 0.
func (s *misScratch) absorb(ix *graph.Indexed, comp []int32, anchor []int32) {
	m := len(comp)
	if cap(s.dist) < m {
		s.dist = make([]int32, m)
		s.seen = make([]bool, m)
		s.alive = make([]bool, m)
		s.simp = make([]bool, m)
		s.nbr = make([]int32, m)
		s.nbrEpoch = 0
	}
	s.dist, s.seen, s.alive, s.simp, s.nbr = s.dist[:m], s.seen[:m], s.alive[:m], s.simp[:m], s.nbr[:m]
	clear(s.dist)
	clear(s.seen)
	if len(anchor) > 0 {
		queue := s.queue[:0]
		for _, x := range anchor {
			if s.stamp[x] == s.epoch {
				s.seen[s.loc[x]] = true
			}
			queue = append(queue, x)
		}
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			dx := int32(0)
			if s.stamp[x] == s.epoch {
				dx = s.dist[s.loc[x]]
			}
			for _, u := range ix.NeighborIndices(int(x)) {
				if s.stamp[u] == s.epoch && !s.seen[s.loc[u]] {
					s.seen[s.loc[u]] = true
					s.dist[s.loc[u]] = dx + 1
					queue = append(queue, u)
				}
			}
		}
		s.queue = queue
	}
	for p := range m {
		s.alive[p] = true
	}
	for p := range m {
		s.simp[p] = s.simplicial(int32(p))
	}
	for left := m; left > 0; {
		best := int32(-1)
		for p := range int32(m) {
			if s.alive[p] && s.simp[p] && (best < 0 || s.dist[p] > s.dist[best]) {
				best = p
			}
		}
		s.out = append(s.out, comp[best])
		// Remove N[best]. Only a vertex that loses a neighbor can turn
		// simplicial, and no simplicial vertex stops being one.
		removed := append(s.queue[:0], best)
		s.alive[best] = false
		for _, q := range s.row(best) {
			if s.alive[q] {
				s.alive[q] = false
				removed = append(removed, q)
			}
		}
		left -= len(removed)
		for _, r := range removed {
			for _, q := range s.row(r) {
				if s.alive[q] && !s.simp[q] {
					s.simp[q] = s.simplicial(q)
				}
			}
		}
		s.queue = removed
	}
}

// simplicial reports whether the live neighbors of position p form a
// clique among the live positions.
func (s *misScratch) simplicial(p int32) bool {
	if s.nbrEpoch == math.MaxInt32 {
		clear(s.nbr)
		s.nbrEpoch = 0
	}
	s.nbrEpoch++
	deg := int32(0)
	for _, q := range s.row(p) {
		if s.alive[q] {
			s.nbr[q] = s.nbrEpoch
			deg++
		}
	}
	for _, q := range s.row(p) {
		if !s.alive[q] {
			continue
		}
		shared := int32(0)
		for _, r := range s.row(q) {
			if s.nbr[r] == s.nbrEpoch {
				shared++
			}
		}
		if shared != deg-1 {
			return false
		}
	}
	return true
}
