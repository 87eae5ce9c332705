// Package snapfix seeds deliberate mutations of shared snapshot views
// next to the blessed copy-first idioms.
package snapfix

import (
	"slices"
	"sort"

	"snapfix/cliquetree"
	"snapfix/dist"
	"snapfix/graph"
	"snapfix/mut"
)

func sortsView(g *graph.Graph, v graph.ID) {
	nb := g.Neighbors(v)
	slices.Sort(nb) // want `sorts the shared snapshot view from graph.Graph.Neighbors`
}

func sortsViewDirect(ix *graph.Indexed) {
	sort.Slice(ix.IDs(), func(i, j int) bool { return false }) // want `sorts the shared snapshot view from graph.Indexed.IDs`
}

func writesView(ix *graph.Indexed) {
	ids := ix.IDs()
	ids[0] = 7 // want `writes into the shared snapshot view from graph.Indexed.IDs`
}

func writesThroughAlias(ix *graph.Indexed, i int) {
	row := ix.NeighborIDs(i)
	tail := row[1:]
	tail[0] = 3 // want `writes into the shared snapshot view from graph.Indexed.NeighborIDs`
}

func incrementsView(ix *graph.Indexed, i int) {
	ix.NeighborIndices(i)[0]++ // want `writes into the shared snapshot view from graph.Indexed.NeighborIndices`
}

func appendsView(ctx *dist.Context) []graph.ID {
	return append(ctx.Neighbors(), 99) // want `appends onto the shared snapshot view from dist.Context.Neighbors`
}

func copiesIntoView(ix *graph.Indexed, src []graph.ID) {
	copy(ix.IDs(), src) // want `copies into the shared snapshot view from graph.Indexed.IDs`
}

// copyThenSort is the blessed idiom: clone the view, mutate the clone.
func copyThenSort(g *graph.Graph, v graph.ID) []graph.ID {
	cp := append([]graph.ID(nil), g.Neighbors(v)...)
	slices.Sort(cp)
	return cp
}

func copyIntoOwned(ctx *dist.Context) []graph.ID {
	nb := ctx.Neighbors()
	out := make([]graph.ID, len(nb))
	copy(out, nb)
	return out
}

// reading the view is always fine.
func sumView(ix *graph.Indexed, i int) graph.ID {
	var total graph.ID
	for _, u := range ix.NeighborIDs(i) {
		total += u
	}
	return total
}

// The CSR clique forest's rows are shared exactly like the graph
// snapshot accessors: every decide worker reads the iteration's forest.

func writesForestClique(f *cliquetree.CSRForest) {
	f.Clique(0)[0] = 3 // want `writes into the shared snapshot view from cliquetree.CSRForest.Clique`
}

func sortsForestNbrs(f *cliquetree.CSRForest, c int32) {
	nb := f.Nbrs(c)
	slices.Sort(nb) // want `sorts the shared snapshot view from cliquetree.CSRForest.Nbrs`
}

func appendsPhiRowAlias(f *cliquetree.CSRForest, v int32) []int32 {
	row := f.PhiRow(v)
	return append(row, 9) // want `appends onto the shared snapshot view from cliquetree.CSRForest.PhiRow`
}

// copyForestClique is the blessed idiom: clone the row before mutating.
func copyForestClique(f *cliquetree.CSRForest, c int32) []int32 {
	cp := append([]int32(nil), f.Clique(c)...)
	slices.Sort(cp)
	return cp
}

// walking a row read-only is always fine.
func sumForestNbrs(f *cliquetree.CSRForest, c int32) int32 {
	var total int32
	for _, nb := range f.Nbrs(c) {
		total += nb
	}
	return total
}

// The interprocedural cases: taint flows through wrapper returns
// (sources) and into mutating callees (sinks), including across
// package boundaries.

// viewRows is a wrapper around an accessor; its results are shared
// views exactly like direct accessor calls.
func viewRows(ix *graph.Indexed) []graph.ID { return ix.IDs() }

func writesThroughWrapper(ix *graph.Indexed) {
	ids := viewRows(ix)
	ids[0] = 1 // want `writes into the shared snapshot view from graph.Indexed.IDs`
}

// zeroFirst mutates its parameter in place, so handing it a view is a
// mutation of the view.
func zeroFirst(s []graph.ID) {
	if len(s) > 0 {
		s[0] = 0
	}
}

func passesViewToMutator(ix *graph.Indexed) {
	zeroFirst(ix.IDs()) // want `passes the shared snapshot view from graph.Indexed.IDs to zeroFirst, which mutates that parameter`
}

func passesViewCrossPackage(ix *graph.Indexed) {
	mut.Zero(ix.IDs()) // want `passes the shared snapshot view from graph.Indexed.IDs to Zero, which mutates that parameter`
}

func passesAliasToMutator(ix *graph.Indexed) {
	ids := viewRows(ix)
	tail := ids[1:]
	mut.Zero(tail) // want `passes the shared snapshot view from graph.Indexed.IDs to Zero, which mutates that parameter`
}

// Mutating an owned copy through the same helpers is the blessed idiom.
func mutatesOwnedCopy(ix *graph.Indexed) {
	cp := append([]graph.ID(nil), ix.IDs()...)
	zeroFirst(cp)
	mut.Zero(cp)
}

// readLen only reads its parameter; passing a view through is fine.
func readLen(s []graph.ID) int { return len(s) }

func passesViewToReader(ix *graph.Indexed) int {
	return readLen(ix.IDs())
}
