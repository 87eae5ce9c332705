package core

import (
	"fmt"
	"math"

	"repro/internal/chordal"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/peel"
)

// ChordalColoring is the result of the (1+ε)-approximation coloring.
type ChordalColoring struct {
	Colors map[graph.ID]int
	// Provisional holds the pre-correction colors from the coloring
	// phase; nodes whose final color differs received a SetColor from
	// their parent in the correction phase.
	Provisional map[graph.ID]int
	ColorsUsed  int
	Omega       int // χ(G) = ω(G) for chordal graphs
	// Palette is the guarantee ⌊(1+1/k)χ⌋+1 ≤ (1+ε)χ (for ε ≥ 2/χ).
	Palette int
	K       int
	Layers  int
	// Rounds is the LOCAL round count (only set by the distributed
	// variant; the centralized algorithm reports 0).
	Rounds int
}

// EffectiveK maps ε to the paper's parameter k = ⌈2/ε⌉, clamped to at
// least 3 so that the two recoloring zones of a peeled internal path
// (radius k+3 each, path diameter ≥ 3k) can always be handled by a single
// Lemma-9 extension between boundaries at distance ≥ k+3.
func EffectiveK(eps float64) int {
	k := int(math.Ceil(2 / eps))
	if k < 3 {
		k = 3
	}
	return k
}

// ColorChordal runs the centralized Algorithm 1: peel the clique forest
// into interval layers, color each peeled path with ColIntGraph, then
// correct inter-layer conflicts top-down with the Lemma-10 recoloring.
// It requires a chordal input and ε > 0; the (1+ε) approximation guarantee
// holds for ε ≥ 2/χ(G) (Theorem 3).
func ColorChordal(g *graph.Graph, eps float64) (*ChordalColoring, error) {
	return ColorChordalObserved(g, eps, nil)
}

// ColorChordalObserved is ColorChordal with metrics hooks: an observer
// implementing dist.KernelObserver receives per-worker kernel spans
// from the centralized pipeline's sharded stages: the peeling path
// measurement and the per-path coloring. Unlike
// ColorChordalDistributedObserved there are no engine rounds to
// observe; nil keeps the zero-cost fast path and the result is
// bit-identical either way.
func ColorChordalObserved(g *graph.Graph, eps float64, o dist.RoundObserver) (*ChordalColoring, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("epsilon must be positive, got %v", eps)
	}
	k := EffectiveK(eps)
	ko, _ := o.(dist.KernelObserver)
	res, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k, NoForests: true, Observer: ko})
	if err != nil {
		return nil, fmt.Errorf("pruning phase: %w", err)
	}
	return colorLayers(g, graph.NewIndexed(g), k, res, nil, ko)
}

// colorLayers runs the coloring and color-correction phases over a peel
// result; ix is g's snapshot. rounds, when non-nil, accumulates the
// LOCAL round cost of the coloring and correction phases. ko, when
// non-nil, receives the per-path coloring stage as a "color-paths"
// kernel span.
func colorLayers(g *graph.Graph, ix *graph.Indexed, k int, peeled *peel.Result, rounds *int, ko dist.KernelObserver) (*ChordalColoring, error) {
	out := &ChordalColoring{
		Colors: make(map[graph.ID]int, g.NumNodes()),
		K:      k,
		Layers: len(peeled.Layers),
	}
	omega, err := chordal.CliqueNumberIndexed(ix)
	if err != nil {
		return nil, err
	}
	out.Omega = omega
	out.Palette = (k+1)*omega/k + 1
	idBound := 1
	for _, v := range g.Nodes() {
		if int(v) >= idBound {
			idBound = int(v) + 1
		}
	}

	// Coloring phase: every peeled path is an interval graph, colored
	// independently by ColIntGraph. Paths run concurrently in the LOCAL
	// model; we charge the maximum cost. Each path's coloring is a pure
	// function of (g, rec, k, idBound), so the paths shard over CPUs
	// with per-path result slots merged in path order — bit-identical to
	// the sequential loop at every GOMAXPROCS, including which error
	// surfaces first.
	type pathRef struct {
		layerIndex int
		rec        *peel.PathRecord
	}
	var refs []pathRef
	for li := range peeled.Layers {
		layer := &peeled.Layers[li]
		for pi := range layer.Paths {
			refs = append(refs, pathRef{layer.Index, &layer.Paths[pi]})
		}
	}
	type colorSlot struct {
		ic  *IntervalColoring
		err error
	}
	slots := make([]colorSlot, len(refs))
	dist.RunKernel("color-paths", len(refs), dist.KernelShards(len(refs)), ko, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sub := g.InducedSubgraph(refs[i].rec.Nodes)
			ic, err := ColIntGraph(sub, peel.LayerCliquePath(*refs[i].rec), k, idBound)
			slots[i] = colorSlot{ic: ic, err: err}
		}
	})
	maxColorRounds := 0
	for i := range slots {
		if slots[i].err != nil {
			return nil, fmt.Errorf("coloring layer %d: %w", refs[i].layerIndex, slots[i].err)
		}
		for v, c := range slots[i].ic.Colors {
			out.Colors[v] = c
		}
		if slots[i].ic.Rounds > maxColorRounds {
			maxColorRounds = slots[i].ic.Rounds
		}
	}
	if rounds != nil {
		*rounds += maxColorRounds
	}
	out.Provisional = make(map[graph.ID]int, len(out.Colors))
	for v, c := range out.Colors {
		out.Provisional[v] = c
	}

	// Color correction phase (Algorithm 1 step 3): top layer keeps its
	// colors; lower layers recolor a radius-(k+3) zone around their
	// higher-layer neighbors via the Lemma-10 engine.
	layerOf := peeled.NodeLayers()
	for i := len(peeled.Layers) - 2; i >= 0; i-- {
		layer := peeled.Layers[i]
		for _, rec := range layer.Paths {
			if err := correctPath(g, rec, layer.Index, layerOf, k, out); err != nil {
				return nil, fmt.Errorf("correcting layer %d: %w", layer.Index, err)
			}
		}
	}

	used := make(map[int]bool)
	for _, c := range out.Colors {
		used[c] = true
	}
	out.ColorsUsed = len(used)
	return out, nil
}

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
