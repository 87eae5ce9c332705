package exp

import (
	"fmt"
	"sort"

	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/peel"
)

// E1Fig12 reproduces Figures 1–2: the 23-node example graph, its weighted
// clique intersection graph, and its canonical clique forest.
func E1Fig12(bool) (*Table, error) {
	g := figures.Fig1()
	cliques, err := chordal.MaximalCliques(g)
	if err != nil {
		return nil, err
	}
	f, err := cliquetree.New(g)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E1",
		Title:   "Figures 1–2: example graph, W_G, clique forest",
		Columns: []string{"quantity", "paper", "measured", "match"},
	}
	match := func(name string, paper, measured any) {
		t.AddRow(name, paper, measured, matchWord(fmt.Sprint(paper) == fmt.Sprint(measured)))
	}
	match("nodes", 23, g.NumNodes())
	match("maximal cliques", 15, len(cliques))
	match("forest edges", 14, len(f.Edges()))
	// Every clique matches a paper label.
	labelled := 0
	for i := 0; i < f.NumVertices(); i++ {
		for _, want := range figures.Fig1CliqueNames {
			if f.Clique(i).Equal(want) {
				labelled++
				break
			}
		}
	}
	match("cliques matching Fig 2 labels", 15, labelled)
	// The six weight-2 W_G edges of Fig 2 are forest edges.
	weight2 := [][2]string{{"C1", "C2"}, {"C2", "C5"}, {"C3", "C4"}, {"C6", "C7"}, {"C8", "C9"}, {"C10", "C11"}}
	have := 0
	idx := func(name string) int {
		for i := 0; i < f.NumVertices(); i++ {
			if f.Clique(i).Equal(figures.Fig1CliqueNames[name]) {
				return i
			}
		}
		return -1
	}
	for _, e := range weight2 {
		if f.HasEdge(idx(e[0]), idx(e[1])) {
			have++
		}
	}
	match("weight-2 forest edges", 6, have)
	subtreesOK := 0
	for _, v := range g.Nodes() {
		if f.SubtreeConnected(v) {
			subtreesOK++
		}
	}
	match("connected subtrees T(v)", 23, subtreesOK)
	return t, nil
}

// E2Fig34 reproduces Figures 3–4: node 10's local view of the clique
// forest from its distance-3 neighborhood.
func E2Fig34(bool) (*Table, error) {
	g := figures.Fig1()
	ball := g.InducedSubgraph(g.Ball(figures.Fig3Center, figures.Fig3Radius))
	lv, err := cliquetree.ComputeLocalView(ball, figures.Fig3Center, figures.Fig3Radius)
	if err != nil {
		return nil, err
	}
	f, err := cliquetree.New(g)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E2",
		Title:   "Figures 3–4: local view of node 10 (d = 3)",
		Columns: []string{"quantity", "paper", "measured", "match"},
	}
	t.AddRow("view cliques", len(figures.Fig4ViewCliques), len(lv.Cliques),
		matchWord(len(lv.Cliques) == len(figures.Fig4ViewCliques)))
	found := 0
	for _, name := range figures.Fig4ViewCliques {
		if lv.FindClique(figures.Fig1CliqueNames[name]) != -1 {
			found++
		}
	}
	t.AddRow("named cliques present (C1,C2,C3,C5..C9)", len(figures.Fig4ViewCliques), found,
		matchWord(found == len(figures.Fig4ViewCliques)))
	consistent := lv.ConsistentWith(f) == nil
	t.AddRow("view ⊆ global forest (Lemma 2)", "yes", matchWord(consistent), matchWord(consistent))
	t.AddRow("view edges (Fig 4 bold subtree)", 7, len(lv.Edges), matchWord(len(lv.Edges) == 7))
	return t, nil
}

// E3Fig56 reproduces Figures 5–6: peeling the internal path C6..C10
// removes exactly the nodes {9..14}, and the remaining forest is the
// clique forest of the remaining graph (Lemma 3).
func E3Fig56(bool) (*Table, error) {
	g := figures.Fig1()
	res, err := peel.Run(g, peel.Options{InternalDiameter: 4})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E3",
		Title:   "Figures 5–6: peeling the internal path C6..C10",
		Columns: []string{"quantity", "paper", "measured", "match"},
	}
	var internalNodes, peeled graph.Set
	internalCliques := 0
	for _, rec := range res.Layers[0].Paths {
		if rec.Kind == cliquetree.Internal {
			internalNodes = res.Snapshot.IDSet(rec.Nodes)
			internalCliques = len(rec.Cliques)
		}
		peeled = append(peeled, res.Snapshot.IDSet(rec.Nodes)...)
	}
	t.AddRow("peeled internal-path nodes", fmt.Sprint(figures.Fig5PeeledNodes), fmt.Sprint(internalNodes),
		matchWord(internalNodes.Equal(figures.Fig5PeeledNodes)))
	t.AddRow("internal path length (cliques)", len(figures.Fig5Path), internalCliques,
		matchWord(internalCliques == len(figures.Fig5Path)))
	// Lemma 3: the forest after removal is the clique forest of G − U:
	// recompute from scratch and compare clique sets.
	remaining := g.Clone()
	remaining.RemoveNodes(peeled)
	fresh, err := cliquetree.New(remaining)
	if err != nil {
		return nil, err
	}
	same := len(res.Forests) > 1 && sameCliqueSets(res.Forests[1], fresh)
	t.AddRow("T − P = clique forest of G−U (Lemma 3)", "yes", matchWord(same), matchWord(same))
	return t, nil
}

// matchWord renders a fidelity check so that failures stand out in the
// tables and in TestAllQuick.
func matchWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}

func sameCliqueSets(a, b *cliquetree.Forest) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	key := func(f *cliquetree.Forest) []string {
		out := make([]string, f.NumVertices())
		for i := 0; i < f.NumVertices(); i++ {
			out[i] = fmt.Sprint(f.Clique(i))
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
