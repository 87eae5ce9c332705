package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
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

// maxParam bounds c/ε, the parameter k or d an ε selects before
// rounding. Every radius, threshold and horizon derived from a parameter
// p stays below 16p (the largest is Algorithm 2's radius 10k), so all of
// them fit the kernels' int32 distances.
const maxParam = math.MaxInt32 / 16

// checkEpsilon is every entry point's ε check: ε must be positive, below
// 1 when unit is set (Algorithm 6), and at least c/maxParam, c being 2
// for Algorithm 1's k, 2.5 for Algorithm 5's and 64 for Algorithm 6's d.
func checkEpsilon(eps, c float64, unit bool) error {
	switch {
	case unit && !(eps > 0 && eps < 1): // NaN fails every comparison
		return fmt.Errorf("epsilon must be in (0,1), got %v", eps)
	case !(eps > 0):
		return fmt.Errorf("epsilon must be positive, got %v", eps)
	case c/eps > maxParam:
		return fmt.Errorf("epsilon too small, got %v: the parameter %v/ε exceeds %d", eps, c, maxParam)
	}
	return nil
}

// ColoringK returns EffectiveK(eps), or the ε check's error for an ε the
// coloring entry points reject.
func ColoringK(eps float64) (int, error) {
	if err := checkEpsilon(eps, 2, false); err != nil {
		return 0, err
	}
	return EffectiveK(eps), nil
}

// ColorChordal runs the centralized Algorithm 1: peel the clique forest
// into interval layers, color each peeled path with ColIntGraph, then
// correct inter-layer conflicts top-down with the Lemma-10 recoloring.
// It requires a chordal input and ε > 0; the (1+ε) approximation guarantee
// holds for ε ≥ 2/χ(G) (Theorem 3).
func ColorChordal(g *graph.Graph, eps float64) (*ChordalColoring, error) {
	return ColorChordalObserved(g, eps, nil)
}

// ColorChordalObserved is ColorChordal with metrics hooks: o receives
// per-worker kernel spans from the centralized pipeline's sharded
// stages: "peel-measure" (the peeling path measurement), "color-paths"
// (the per-path coloring) and one "correct-paths" launch per corrected
// layer (the Lemma-10 recoloring). Unlike
// ColorChordalDistributedObserved there are no engine rounds to
// observe; nil keeps the zero-cost fast path and the result is
// bit-identical either way.
func ColorChordalObserved(g *graph.Graph, eps float64, o dist.RoundObserver) (*ChordalColoring, error) {
	k, err := ColoringK(eps)
	if err != nil {
		return nil, err
	}
	res, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k, NoForests: true, Observer: o})
	if err != nil {
		return nil, fmt.Errorf("pruning phase: %w", err)
	}
	return colorLayers(k, res, nil, o)
}

// colorLayers runs the coloring and color-correction phases over a peel
// result, in the index space of its snapshot. rounds, when non-nil,
// accumulates the LOCAL round cost of the coloring and correction
// phases. o, when non-nil, receives the per-path coloring stage as a
// "color-paths" kernel span and each corrected layer as a
// "correct-paths" one.
func colorLayers(k int, peeled *peel.Result, rounds *int, o dist.RoundObserver) (*ChordalColoring, error) {
	ix := peeled.Snapshot
	out := &ChordalColoring{K: k, Layers: len(peeled.Layers), Omega: peeled.Omega}
	out.Palette = (k+1)*out.Omega/k + 1

	// Coloring phase: every peeled path is an interval graph, colored
	// independently by ColIntGraph as one "color-paths" launch into the
	// corrector's index-space colors. Paths run concurrently in the LOCAL
	// model; we charge the maximum cost.
	cr := newCorrector(peeled, k, out.Palette)
	maxColorRounds, failed, err := cr.launch("color-paths", 0, len(cr.refs), o, func(s *correctScratch, p int) (int, error) {
		return s.colorPath(ix, cr.refs[p].Nodes, cr.refs[p].Cliques, k)
	})
	if err != nil {
		return nil, fmt.Errorf("coloring layer %d: %w", cr.layerOf[cr.refs[failed].Nodes[0]], err)
	}
	if rounds != nil {
		*rounds += maxColorRounds
	}
	provisional := slices.Clone(cr.colors)

	// Color correction phase (Algorithm 1 step 3): top layer keeps its
	// colors; lower layers recolor a radius-(k+3) zone around their
	// higher-layer neighbors via the Lemma-10 engine, one layer at a
	// time from the top.
	for li := len(peeled.Layers) - 2; li >= 0; li-- {
		if err := cr.correctLayer(li, int32(peeled.Layers[li].Index), o); err != nil {
			return nil, fmt.Errorf("correcting layer %d: %w", peeled.Layers[li].Index, err)
		}
	}

	out.Colors = colorMap(ix.IDs(), cr.colors)
	out.Provisional = colorMap(ix.IDs(), provisional)
	out.ColorsUsed = colorsUsed(cr.colors)
	return out, nil
}

// colorMap keys the nonzero entries of an index-space color slice by
// node ID.
func colorMap(ids []graph.ID, colors []int32) map[graph.ID]int {
	m := make(map[graph.ID]int, len(colors))
	for x, c := range colors {
		if c != 0 {
			m[ids[x]] = int(c)
		}
	}
	return m
}

// colorsUsed counts the distinct nonzero colors of an index-space color
// slice.
func colorsUsed(colors []int32) int {
	used := make(map[int32]bool)
	for _, c := range colors {
		if c != 0 {
			used[c] = true
		}
	}
	return len(used)
}
