// Package chordal is the public API of this reproduction of
// Konrad & Zamaraev, "Distributed Minimum Vertex Coloring and Maximum
// Independent Set in Chordal Graphs" (PODC 2018 / arXiv:1805.04544).
//
// It exposes deterministic (1+ε)-approximation algorithms for Minimum
// Vertex Coloring (Theorems 3–4) and Maximum Independent Set
// (Theorems 5–8) on chordal and interval graphs, in both centralized form
// and as simulated LOCAL-model distributed algorithms with round
// accounting, together with the supporting machinery: chordality
// recognition, clique forests (Section 3), exact baselines, and graph
// generators.
//
// Quickstart:
//
//	g := chordal.RandomChordalGraph(1000, 5, 42)
//	coloring, err := chordal.Color(g, 0.25)        // ≤ (1+ε)χ colors
//	mis, err := chordal.MaxIndependentSet(g, 0.25) // ≥ α/(1+ε) nodes
package chordal

import (
	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
)

// Graph is an undirected simple graph over integer node IDs.
type Graph = graph.Graph

// ID identifies a node.
type ID = graph.ID

// Set is a sorted set of node IDs.
type Set = graph.Set

// Interval is a closed interval on the line, used for interval-graph
// models.
type Interval = gen.Interval

// Coloring is the result of the approximate chordal coloring.
type Coloring = core.ChordalColoring

// IntervalColoring is the result of the approximate interval coloring.
type IntervalColoring = core.IntervalColoring

// MISResult is the result of the approximate chordal MIS.
type MISResult = core.ChordalMISResult

// IntervalMISResult is the result of the approximate interval MIS.
type IntervalMISResult = core.IntervalMISResult

// CliqueForest is the canonical clique forest of a chordal graph
// (Section 3 of the paper).
type CliqueForest = cliquetree.Forest

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// FromEdges builds a graph from explicit nodes and edges.
func FromEdges(nodes []ID, edges [][2]ID) *Graph { return graph.FromEdges(nodes, edges) }

// FromIntervals returns the intersection graph of the given intervals.
func FromIntervals(ivs []Interval) *Graph { return gen.FromIntervals(ivs) }

// RandomChordalGraph returns a connected random chordal graph on n nodes
// with clique number at most maxClique+1.
func RandomChordalGraph(n, maxClique int, seed int64) *Graph {
	return gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: maxClique, AttachFull: 0.4}, seed)
}

// RandomIntervalGraph returns a random interval graph together with its
// interval model.
func RandomIntervalGraph(n int, span, maxLen float64, seed int64) (*Graph, []Interval) {
	ivs := gen.RandomIntervals(n, span, maxLen, seed)
	return gen.FromIntervals(ivs), ivs
}

// IsChordal reports whether g is chordal.
func IsChordal(g *Graph) bool { return chordal.IsChordal(g) }

// ChromaticNumber returns χ(g) (= ω(g)) of a chordal graph.
func ChromaticNumber(g *Graph) (int, error) { return chordal.CliqueNumber(g) }

// IndependenceNumber returns α(g) of a chordal graph.
func IndependenceNumber(g *Graph) (int, error) { return chordal.IndependenceNumber(g) }

// OptimalColoring returns an exact minimum coloring of a chordal graph
// (the centralized baseline the approximation is measured against).
func OptimalColoring(g *Graph) (map[ID]int, error) { return chordal.OptimalColoring(g) }

// MaximumIndependentSetExact returns an exact maximum independent set of a
// chordal graph (Gavril's algorithm).
func MaximumIndependentSetExact(g *Graph) (Set, error) {
	return chordal.MaximumIndependentSet(g)
}

// MaximumWeightIndependentSet returns an exact maximum-weight independent
// set of a chordal graph with non-negative weights (Frank's two-pass
// algorithm over a perfect elimination ordering) and its total weight.
func MaximumWeightIndependentSet(g *Graph, weight map[ID]int) (Set, int, error) {
	return chordal.MaximumWeightIndependentSet(g, weight)
}

// NewCliqueForest computes the canonical clique forest of a chordal graph:
// the unique maximum-weight spanning forest of the weighted clique
// intersection graph under the paper's tie-breaking order.
func NewCliqueForest(g *Graph) (*CliqueForest, error) { return cliquetree.New(g) }

// Color computes a (1+ε)-approximate minimum vertex coloring of a chordal
// graph with the paper's centralized Algorithm 1. The guarantee
// ⌊(1+1/k)χ⌋+1 ≤ (1+ε)χ holds for ε ≥ 2/χ(g) (Theorem 3).
func Color(g *Graph, eps float64) (*Coloring, error) { return core.ColorChordal(g, eps) }

// ColorDistributed runs the distributed Algorithm 2 in a simulated LOCAL
// network: the pruning phase is executed with genuine message passing and
// per-node local views of the clique forest, and the result reports the
// LOCAL round count, which is O((1/ε)·log n) (Theorem 4).
func ColorDistributed(g *Graph, eps float64) (*Coloring, error) {
	return core.ColorChordalDistributed(g, eps)
}

// ColorInterval computes a (1+ε)-approximate coloring of an interval
// graph from its model, using the reimplementation of the
// Halldórsson–Konrad ColIntGraph routine the paper builds on; ε must be
// positive.
func ColorInterval(ivs []Interval, eps float64) (*IntervalColoring, error) {
	k, err := core.ColoringK(eps)
	if err != nil {
		return nil, err
	}
	return core.ColIntGraph(gen.FromIntervals(ivs), interval.CliquePathFromModel(ivs), k)
}

// RecognizeInterval tests whether g is an interval graph and returns an
// interval model realizing it (Gilmore–Hoffman: chordal + transitively
// orientable complement). The returned model can drive ColorInterval
// without geometric input.
func RecognizeInterval(g *Graph) ([]Interval, error) {
	_, model, err := interval.Recognize(g)
	return model, err
}

// IsIntervalGraph reports whether g is an interval graph.
func IsIntervalGraph(g *Graph) bool { return interval.IsInterval(g) }

// ColorIntervalGraph is the model-free variant of ColorInterval: it
// recognizes g as an interval graph (constructing a model) and colors it.
func ColorIntervalGraph(g *Graph, eps float64) (*IntervalColoring, error) {
	k, err := core.ColoringK(eps)
	if err != nil {
		return nil, err
	}
	path, _, err := interval.Recognize(g)
	if err != nil {
		return nil, err
	}
	return core.ColIntGraph(g, path, k)
}

// MaxIndependentSet computes a (1+ε)-approximate maximum independent set
// of a chordal graph (Algorithm 6, Theorems 7–8), for ε ∈ (0, 1).
func MaxIndependentSet(g *Graph, eps float64) (*MISResult, error) {
	return core.MISChordal(g, eps)
}

// MaxIndependentSetDistributed runs Algorithm 6 with the pruning phase
// executed by genuine message passing in the simulated LOCAL network
// (Theorem 8); the result reports the LOCAL round count.
func MaxIndependentSetDistributed(g *Graph, eps float64) (*MISResult, error) {
	return core.MISChordalDistributed(g, eps)
}

// MaxIndependentSetInterval computes a (1+ε)-approximate maximum
// independent set of an interval graph (Algorithm 5, Theorems 5–6).
// On a graph that is not interval it fails when removing the dominated
// vertices leaves a component that is not proper interval.
func MaxIndependentSetInterval(g *Graph, eps float64) (*IntervalMISResult, error) {
	return core.MISInterval(g, eps)
}

// Chordalize returns a chordal supergraph of g (a triangulation via
// minimum-degree fill-in) together with the added edges. Chordal inputs
// come back unchanged. This supports the paper's concluding question
// about graphs with longer induced cycles: the chordal machinery runs on
// the triangulation, and colorings of the triangulation are legal for g.
func Chordalize(g *Graph) (*Graph, [][2]ID) {
	return chordal.FillIn(g)
}

// ColorAny colors an arbitrary graph by triangulating it first and
// running the (1+ε)-approximate chordal coloring on the result. The
// output is a legal coloring of g using at most (1+ε)·χ(triangulation)
// colors; the gap between χ(g) and χ(triangulation) is the price of
// leaving the chordal world (experiment E16 measures it).
func ColorAny(g *Graph, eps float64) (*Coloring, error) {
	tri, _ := chordal.FillIn(g)
	res, err := core.ColorChordal(tri, eps)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// VerifyColoring checks legality and returns the number of colors used.
func VerifyColoring(g *Graph, colors map[ID]int) (int, error) {
	return verifyColoring(g, colors)
}

// VerifyIndependentSet checks that is is an independent set of g.
func VerifyIndependentSet(g *Graph, is Set) error {
	return verifyIndependentSet(g, is)
}
