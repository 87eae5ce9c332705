package core

import (
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/peel"
)

// The map-backed post-peel stages, kept as the oracles of the
// index-space kernels in correct.go and mis_components.go.

// correctPath resolves the conflicts of one peeled path against its
// higher-layer neighborhood W′ (Lemma 10): W′ and the far interior of W
// stay fixed, the zone within distance k+3 of W′ is recolored with the
// global palette.
func correctPath(g *graph.Graph, rec peel.PathRecord, layerIndex int, layerOf map[graph.ID]int, k int, out *ChordalColoring) error {
	inW := make(map[graph.ID]bool, len(rec.Nodes))
	for _, v := range rec.Nodes {
		inW[v] = true
	}
	var wPrime graph.Set
	seen := make(map[graph.ID]bool)
	for _, v := range rec.Nodes {
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

	stripNodes := graph.NewSet(append(rec.Nodes.Clone(), wPrime...)...)
	strip := g.InducedSubgraph(stripNodes)
	// The strip's clique path per Lemma 8: the peeled path flanked by its
	// attachment cliques, restricted to the strip's nodes.
	full := make([]graph.Set, 0, len(rec.Cliques)+2)
	if rec.AttachStart != nil {
		full = append(full, rec.AttachStart)
	}
	full = append(full, rec.Cliques...)
	if rec.AttachEnd != nil {
		full = append(full, rec.AttachEnd)
	}
	keep := make(map[graph.ID]bool, len(stripNodes))
	for _, v := range stripNodes {
		keep[v] = true
	}
	stripPath := interval.RestrictCliquePath(full, func(v graph.ID) bool { return keep[v] })

	zone := RecolorZone(strip, wPrime, k+3)
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
	colors, err := ExtendColoring(strip, stripPath, fixed, out.Palette)
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
func componentAnchor(g *graph.Graph, h *graph.Graph, rec peel.PathRecord) graph.Set {
	touches := func(c graph.Set) bool {
		if c == nil {
			return false
		}
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
	if touches(rec.AttachStart) {
		return rec.AttachStart
	}
	if touches(rec.AttachEnd) {
		return rec.AttachEnd
	}
	return nil
}
