package peel

import (
	"fmt"

	"repro/internal/cliquetree"
	"repro/internal/graph"
)

// runReference is the original map-backed implementation of Run, kept as
// the oracle for equivalence tests of the CSR engine in csr.go. It
// computes on node IDs and converts each record to snapshot indices.
func runReference(g *graph.Graph, opts Options) (*Result, error) {
	ix := opts.Snapshot
	if ix == nil {
		ix = graph.NewIndexed(g)
	}
	res := &Result{Snapshot: ix, NodeLayer: make([]int32, ix.NumNodes())}
	remaining := g.Clone()
	iteration := 0
	for remaining.NumNodes() > 0 {
		iteration++
		if opts.MaxIterations > 0 && iteration > opts.MaxIterations {
			break
		}
		forest, err := cliquetree.New(remaining)
		if err != nil {
			return nil, fmt.Errorf("peel iteration %d: %w", iteration, err)
		}
		res.Forests = append(res.Forests, forest)
		last := opts.MaxIterations > 0 && iteration == opts.MaxIterations
		layer, peeled, err := peelOnce(ix, remaining, forest, iteration, opts, last)
		if err != nil {
			return nil, err
		}
		if len(peeled) == 0 && !last {
			// A nonempty forest always has pendant paths, so this cannot
			// happen; guard against looping forever.
			return nil, fmt.Errorf("peel iteration %d removed nothing", iteration)
		}
		res.Layers = append(res.Layers, *layer)
		remaining.RemoveNodes(peeled)
		for _, v := range peeled {
			x, _ := ix.IndexOf(v)
			res.NodeLayer[x] = int32(iteration)
		}
		if opts.Trace != nil {
			ev := LayerEvent{
				Iteration:     iteration,
				NodesPeeled:   len(peeled),
				ForestCliques: forest.NumVertices(),
				Remaining:     remaining.NumNodes(),
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

// peelOnce is one iteration of runReference: the layer, by snapshot
// index of ix, and its node set V_i by ID.
func peelOnce(ix *graph.Indexed, current *graph.Graph, forest *cliquetree.Forest, iteration int, opts Options, last bool) (*Layer, graph.Set, error) {
	layer := &Layer{Index: iteration}
	var peeled []graph.ID
	for _, p := range forest.MaximalBinaryPaths() {
		rec := PathRecord{Kind: p.Kind}
		for _, ci := range p.Cliques {
			rec.Cliques = append(rec.Cliques, indices(ix, forest.Clique(ci)))
		}
		if p.AttachStart != -1 {
			rec.AttachStart = indices(ix, forest.Clique(p.AttachStart))
		}
		if p.AttachEnd != -1 {
			rec.AttachEnd = indices(ix, forest.Clique(p.AttachEnd))
		}
		diamCap := opts.InternalDiameter
		if diamCap < 8 {
			diamCap = 8
		}
		rec.Diameter = forest.PathDiameterCapped(current, p, diamCap)

		take := false
		switch p.Kind {
		case cliquetree.Pendant:
			take = true
		case cliquetree.Internal:
			if last && opts.FinalAlpha > 0 {
				alpha, err := forest.PathIndependenceNumber(current, p)
				if err != nil {
					return nil, nil, fmt.Errorf("peel iteration %d: %w", iteration, err)
				}
				take = alpha >= opts.FinalAlpha
			} else {
				take = opts.InternalDiameter > 0 && rec.Diameter >= opts.InternalDiameter
			}
		}
		if !take {
			continue
		}
		nodes := forest.SubpathNodes(p)
		rec.Nodes = indices(ix, nodes)
		layer.Paths = append(layer.Paths, rec)
		peeled = append(peeled, nodes...)
	}
	// One sort+dedup over all peeled paths; equivalent to the pairwise
	// unions it replaces, without the quadratic re-merging.
	return layer, graph.NewSet(peeled...), nil
}

// indices maps a set of node IDs to their snapshot indices, ascending
// like the set.
func indices(ix *graph.Indexed, s graph.Set) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		x, _ := ix.IndexOf(v)
		out[i] = int32(x)
	}
	return out
}
