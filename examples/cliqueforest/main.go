// Clique-forest tour: walks the paper's running example (Figures 1–6)
// through the Section 2–3 machinery — maximal cliques, the weighted
// clique intersection graph, the canonical clique forest, a node's local
// view, and one step of the peeling process.
package main

import (
	"fmt"
	"log"
	"sort"

	chordal "repro"
	"repro/internal/cliquetree"
	"repro/internal/figures"
	"repro/internal/peel"
)

func main() {
	g := figures.Fig1()
	fmt.Printf("Figure 1 graph: n=%d, m=%d, chordal=%v\n",
		g.NumNodes(), g.NumEdges(), chordal.IsChordal(g))

	forest, err := chordal.NewCliqueForest(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 2 — clique forest: %d maximal cliques, %d edges\n",
		forest.NumVertices(), len(forest.Edges()))
	names := labelCliques(forest)
	for _, e := range forest.Edges() {
		w := forest.Clique(e[0]).Intersect(forest.Clique(e[1]))
		fmt.Printf("  %-3s -- %-3s  (separator %v, weight %d)\n",
			names[e[0]], names[e[1]], w, len(w))
	}

	fmt.Printf("\nFigures 3–4 — local view of node %d from its distance-%d ball:\n",
		figures.Fig3Center, figures.Fig3Radius)
	ball := g.InducedSubgraph(g.Ball(figures.Fig3Center, figures.Fig3Radius))
	view, err := cliquetree.ComputeLocalView(ball, figures.Fig3Center, figures.Fig3Radius)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range view.Cliques {
		fmt.Printf("  sees clique %v\n", c)
	}
	fmt.Printf("  %d view edges — all part of the global forest: %v\n",
		len(view.Edges), view.ConsistentWith(forest) == nil)

	fmt.Printf("\nFigures 5–6 — first peeling iteration (threshold diam ≥ 4):\n")
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 4})
	if err != nil {
		log.Fatal(err)
	}
	// The records hold snapshot indices; print them as node IDs.
	for _, rec := range peeled.Layers[0].Paths {
		fmt.Printf("  %s path of %d cliques, diameter %d → removes nodes %v\n",
			rec.Kind, len(rec.Cliques), rec.Diameter, peeled.Snapshot.IDSet(rec.Nodes))
	}
	fmt.Printf("  total layers: %d (bound ⌈log n⌉)\n", len(peeled.Layers))
	for _, layer := range peeled.Layers {
		var nodes []chordal.ID
		for x, l := range peeled.NodeLayer {
			if int(l) == layer.Index {
				nodes = append(nodes, peeled.Snapshot.IDOf(x))
			}
		}
		fmt.Printf("  layer %d: %v\n", layer.Index, nodes)
	}
}

// labelCliques maps forest vertex indices to the paper's C1..C15 names.
func labelCliques(f *chordal.CliqueForest) map[int]string {
	names := make(map[int]string, f.NumVertices())
	for i := 0; i < f.NumVertices(); i++ {
		names[i] = "?"
		for name, set := range figures.Fig1CliqueNames {
			if f.Clique(i).Equal(set) {
				names[i] = name
				break
			}
		}
	}
	// Stable output order handled by Edges(); nothing else needed.
	_ = sort.Strings
	return names
}
