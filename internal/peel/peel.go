// Package peel implements the paper's peeling process (Algorithm 1 step 1
// and Algorithm 6 step 1/3): iteratively removing, from the clique forest
// of the remaining graph, all maximal pendant paths plus the maximal
// internal paths that pass a threshold (diameter for coloring,
// independence number in the last MIS iteration), partitioning the node
// set into layers whose induced subgraphs are interval graphs
// (Lemmas 3–7).
package peel

import (
	"repro/internal/cliquetree"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/interval"
)

// PathRecord captures one peeled path of L_i with everything later phases
// need, in the index space of Result.Snapshot: its cliques in path order,
// its classification, the attachment cliques in the surrounding forest
// (whose nodes land in higher layers and are the only possible coloring
// conflicts, Lemma 8), and its measured diameter. Every clique and node
// set is ascending snapshot indices.
type PathRecord struct {
	Cliques [][]int32
	Kind    cliquetree.PathKind
	Nodes   []int32 // W: nodes whose subtree is a subpath of this path
	// Diameter is the path's diameter in the graph current at peeling
	// time, measured exactly up to the peeling threshold and reported as
	// the threshold when it is at least that large (the decision only
	// needs the comparison).
	Diameter int
	// AttachStart/AttachEnd are the forest vertices adjacent to the
	// path's ends, nil when absent. Pendant paths have at most AttachEnd.
	AttachStart, AttachEnd []int32
}

// Layer is one peeling iteration's result. V_i is the union of its
// paths' Nodes, which are disjoint.
type Layer struct {
	Index int // 1-based iteration number
	Paths []PathRecord
}

// Result is the outcome of the peeling process.
type Result struct {
	Layers []Layer
	// Snapshot is the snapshot of the input that the records' indices
	// and NodeLayer refer to.
	Snapshot *graph.Indexed
	// NodeLayer is each node's 1-based layer, by snapshot index; 0 means
	// never peeled (U_{last+1}: none for a full run, usually some for a
	// truncated MIS-style run).
	NodeLayer []int32
	// Forests[i] is the clique forest T_{i+1} of G[U_{i+1}] at the start
	// of iteration i+1 (Forests[0] = T_1 = the input's forest).
	Forests []*cliquetree.Forest
	// Omega is the size of the largest clique of T_1. T_1's cliques are
	// all the maximal cliques of the input, so this is its clique number
	// ω (0 for an empty graph). Set by Run only.
	Omega int
}

// LayerEvent is the per-iteration summary handed to Options.Trace after
// each peeling iteration. Every field is a pure function of the input
// graph and options (the peeling process is deterministic), so traces
// are byte-identical across runs.
type LayerEvent struct {
	// Iteration is the 1-based peeling iteration (Layer.Index).
	Iteration int
	// PendantPaths / InternalPaths count the peeled paths by kind.
	PendantPaths  int
	InternalPaths int
	// NodesPeeled is |V_i|, the nodes removed by this iteration.
	NodesPeeled int
	// ForestCliques is the number of cliques in T_i, the clique forest
	// of the graph this iteration peeled from.
	ForestCliques int
	// Remaining is the number of nodes left after this iteration.
	Remaining int
}

// Options configures the peeling process.
type Options struct {
	// InternalDiameter peels maximal internal paths with diameter at
	// least this value (Algorithm 1 uses 3k; Algorithm 6 uses 2d+3).
	// Zero or negative means pendant paths only.
	InternalDiameter int
	// MaxIterations truncates the process (Algorithm 6 runs Θ(log(1/ε))
	// iterations); zero means run until the forest is exhausted.
	MaxIterations int
	// FinalAlpha, when positive and MaxIterations > 0, switches the last
	// iteration's internal-path rule to "independence number at least
	// FinalAlpha" (Algorithm 6's last iteration).
	FinalAlpha int
	// Trace, when non-nil, receives one LayerEvent per iteration, after
	// the layer's nodes are removed. It must not retain references into
	// the run's internal state (events are plain values, so it cannot).
	Trace func(LayerEvent)
	// Observer, when non-nil, receives one "peel-measure" kernel span
	// per iteration: per-worker busy times and path counts from the
	// sharded path-measurement loop. Observability never changes the
	// schedule or the result.
	Observer dist.RoundObserver
	// NoForests skips materializing Result.Forests (map-backed Forest
	// values built only for callers that inspect them; the peeling
	// decisions never read them).
	NoForests bool
	// Snapshot, when non-nil, is a snapshot of the input graph that Run
	// peels instead of taking its own, so a pipeline that already holds
	// one takes it once. nil takes a fresh snapshot.
	Snapshot *graph.Indexed
}

// LayerCliquePath restricts a peeled path's cliques to its node set W,
// yielding, by node ID of ix (the result's Snapshot), the clique path
// (consecutive arrangement of maximal cliques) of the interval graph
// G[W]. Empty restrictions and restrictions subsumed by a neighbor are
// dropped.
func LayerCliquePath(ix *graph.Indexed, rec PathRecord) []graph.Set {
	w := make(map[graph.ID]bool, len(rec.Nodes))
	for _, x := range rec.Nodes {
		w[ix.IDOf(int(x))] = true
	}
	path := make([]graph.Set, len(rec.Cliques))
	for i, c := range rec.Cliques {
		path[i] = ix.IDSet(c)
	}
	return interval.RestrictCliquePath(path, func(v graph.ID) bool { return w[v] })
}
