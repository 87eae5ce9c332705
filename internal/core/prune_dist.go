package core

import (
	"fmt"

	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/peel"
)

// PruneOutcome is the result of the distributed pruning phase
// (Algorithm 3) in the index space of the snapshot its floods ran on:
// the layer assignment, each node's parent for the color correction
// phase, and the LOCAL rounds consumed.
type PruneOutcome struct {
	// Snapshot is the snapshot every flood of the prune ran on; Layer
	// and Parent are indexed by it.
	Snapshot *graph.Indexed
	// Layer is each node's 1-based layer; 0 means never decided (the
	// remainder of a truncated run).
	Layer []int32
	// Parent is each node's parent per Definition 1, as a snapshot
	// index; -1 means ⊥.
	Parent     []int32
	Rounds     int
	Iterations int
	// Messages and Volume (in flood records) measure the flooding
	// traffic of the whole pruning phase — LOCAL allows unbounded
	// messages; this is what the protocol actually used.
	Messages int
	Volume   int
}

// PruneSpec configures the distributed pruning phase. The zero value is
// invalid; use the constructors or fill every relevant field.
type PruneSpec struct {
	// DiamThreshold peels internal paths of anchored diameter at least
	// this value (Algorithm 2 uses 3k, Algorithm 6 uses 2d+3).
	DiamThreshold int
	// Radius is the per-iteration knowledge radius; it must comfortably
	// exceed DiamThreshold (Algorithm 2 uses 10k ≈ 3.3×) so that
	// threshold comparisons are exact within the ball.
	Radius int
	// MaxIterations truncates the process (Algorithm 6); 0 = until all
	// nodes are decided.
	MaxIterations int
	// FinalAlpha, when positive with MaxIterations > 0, switches the last
	// iteration's internal-path rule to "independence number ≥ FinalAlpha"
	// (Algorithm 6's last iteration).
	FinalAlpha int
	// RunOpts is passed to every flood. An Observer that also implements
	// dist.PhaseSetter sees each iteration's flood labeled "prune-iNN",
	// so traces resolve the phase structure. The plain flood tolerates
	// duplicated and delayed messages; dropped ones shrink balls and
	// typically surface as a Lemma-12 divergence in the callers'
	// centralized cross-check. With a Part, the floods run on its shards
	// and the results are identical by construction: the decide kernel
	// and all other stages stay in this process.
	dist.RunOpts
}

// DistributedPrune runs the PruneTree subroutine of Algorithm 2 with
// parameter k: per iteration, nodes flood their distance-10k
// neighborhoods (genuine message passing, 10k rounds charged), undecided
// nodes read their local view of the clique forest of the remaining
// graph, and each decides from that view alone whether its subtree lies
// on a peelable path (a pendant path, or a binary path of diameter ≥ 3k).
func DistributedPrune(g *graph.Graph, k int) (*PruneOutcome, error) {
	return DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3 * k, Radius: 10 * k})
}

// DistributedPruneSpec runs the distributed pruning phase under an
// arbitrary rule set (Algorithm 2's or Algorithm 6's).
func DistributedPruneSpec(g *graph.Graph, spec PruneSpec) (*PruneOutcome, error) {
	if spec.Radius < spec.DiamThreshold*3 {
		return nil, fmt.Errorf("radius %d too small for threshold %d (need ≥ 3×)",
			spec.Radius, spec.DiamThreshold)
	}
	if spec.FinalAlpha > 0 && spec.Radius < 2*spec.FinalAlpha+16 {
		return nil, fmt.Errorf("radius %d too small for α-threshold %d", spec.Radius, spec.FinalAlpha)
	}
	if spec.Radius < 2 {
		return nil, fmt.Errorf("radius %d too small: the decide kernel needs a knowledge radius of at least 2", spec.Radius)
	}
	// The communication graph never changes across iterations: snapshot it
	// once and reuse the snapshot for every flood.
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()
	// The decide rules hold on chordal graphs only; on other input the
	// prune stalls or completes with meaningless layers, so reject it
	// before the first flood. BFSOrder lists every row once.
	var elim chordal.Elim
	_, rowPtr, cols := ix.CSR()
	elim.MCS(rowPtr, cols, ix.BFSOrder())
	if err := elim.CheckPEO(); err != nil {
		return nil, err
	}
	out := &PruneOutcome{Snapshot: ix, Layer: make([]int32, n), Parent: make([]int32, n)}
	for i := range out.Parent {
		out.Parent[i] = -1
	}
	// Decide-kernel state reused across iterations: the undecided mask,
	// G_i's clique forest and its builder, and one scratch per kernel
	// shard (see decide.go).
	undecidedIdx := make([]bool, n)
	centers := make([]int32, 0, n)
	builder := cliquetree.NewBuilder(ix)
	var forest cliquetree.CSRForest
	var scratches []*decideScratch
	var results []decideResult
	for iteration, decided := 1, 0; decided < n; iteration++ {
		if spec.MaxIterations > 0 && iteration > spec.MaxIterations {
			break
		}
		if iteration > n+1 {
			return nil, fmt.Errorf("distributed prune did not terminate")
		}
		out.Iterations = iteration
		last := spec.MaxIterations > 0 && iteration == spec.MaxIterations
		if ps, ok := spec.Observer.(dist.PhaseSetter); ok {
			ps.SetPhase(fmt.Sprintf("prune-i%02d", iteration))
		}
		know, stats, err := dist.Flood(ix, spec.Radius, spec.RunOpts)
		if err != nil {
			return nil, err
		}
		out.Rounds += stats.Rounds
		out.Messages += stats.Messages
		out.Volume += stats.Volume

		rule := decideRule{
			diamThreshold: spec.DiamThreshold,
			parentHorizon: spec.DiamThreshold/3 + 3,
		}
		if last && spec.FinalAlpha > 0 {
			rule.alphaThreshold = spec.FinalAlpha
		}
		centers = centers[:0]
		for i := range undecidedIdx {
			undecidedIdx[i] = out.Layer[i] == 0
			if undecidedIdx[i] {
				centers = append(centers, int32(i))
			}
		}
		// G_i's canonical clique forest, over the undecided mask. Each
		// node still decides from its own ball alone: the kernel reads a
		// clique's row only when the trust gate finds all of its members
		// well inside the ball, where Lemma 2 makes the row a function of
		// the ball (see decide.go). The forest is built up front, so the
		// decide workers only ever read it. G_i is an induced subgraph of
		// the chordal input, so the build cannot fail.
		if err := builder.Build(undecidedIdx, len(centers), &forest); err != nil {
			return nil, err
		}
		shards := dist.KernelShards(len(centers))
		for len(scratches) < shards {
			scratches = append(scratches, &decideScratch{})
		}
		if ps, ok := spec.Observer.(dist.PhaseSetter); ok {
			ps.SetPhase(fmt.Sprintf("decide-i%02d", iteration))
		}
		results = runDecideStage(ix, know, &forest, scratches,
			centers, undecidedIdx, rule, spec.Radius, shards, spec.Observer, results)
		peeled := 0
		for pos, ci := range centers {
			if results[pos].peel {
				peeled++
				out.Layer[ci] = int32(iteration)
				out.Parent[ci] = results[pos].parent
			}
		}
		if peeled == 0 && !last {
			return nil, fmt.Errorf("iteration %d peeled nothing", iteration)
		}
		decided += peeled
	}
	return out, nil
}

// checkLemma12 verifies Lemma 12 — the distributed prune produces
// exactly the centralized layers of peeled, a peel of the same snapshot
// — node by node in index order, so a violation always names the
// lowest-index offender. Layer 0 means never peeled on either side.
func (out *PruneOutcome) checkLemma12(peeled *peel.Result) error {
	for i, l := range out.Layer {
		if central := peeled.NodeLayer[i]; l != central {
			return fmt.Errorf("Lemma 12 violation: node %d in distributed layer %d, centralized layer %d",
				out.Snapshot.IDOf(i), l, central)
		}
	}
	return nil
}

// decideRule is the per-iteration peeling rule used by the decide
// kernel (decide.go).
type decideRule struct {
	diamThreshold  int
	alphaThreshold int // >0 switches internal paths to the α rule
	parentHorizon  int // parent adoption distance (k+3)
}

// ColorChordalDistributed runs the full distributed Algorithm 2: the
// genuinely message-passed pruning phase, then the coloring and color
// correction phases with LOCAL round accounting. As a built-in
// self-check it verifies that the distributed layer partition matches the
// centralized Algorithm 1 partition (Lemma 12) and fails loudly if not.
func ColorChordalDistributed(g *graph.Graph, eps float64) (*ChordalColoring, error) {
	return ColorChordalDistributedObserved(g, eps, nil, nil)
}

// ColorChordalDistributedObserved is ColorChordalDistributed with
// observability hooks: o (may be nil) is attached to every engine run —
// the pruning floods, phase-labeled per iteration, and the correction
// choreography, labeled "correction" — and peelTrace (may be nil)
// receives the centralized cross-check peel's per-layer events.
func ColorChordalDistributedObserved(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent)) (*ChordalColoring, error) {
	return colorChordalDistributed(g, eps, dist.RunOpts{Observer: o}, peelTrace)
}

// ColorChordalDistributedFaultyPart is ColorChordalDistributedObserved
// with a fault schedule attached to every message-passing run (the
// pruning floods and the correction choreography) and those runs
// executed on part — shard hosts that may live in other processes — or
// on the in-process engine when part is nil. Everything else (decide
// kernel, centralized cross-check, coloring) stays in this process, and
// the result is byte-identical to the LOCAL run on the same seed by
// construction. Duplication and delay are absorbed — the coloring is
// byte-identical to the fault-free run — while drops and crashes
// surface as errors: the Lemma-12 cross-check against the centralized
// peel catches corrupted pruning, and the runtime reports crashes
// directly.
func ColorChordalDistributedFaultyPart(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent), f *dist.Faults, part *dist.Partition) (*ChordalColoring, error) {
	return colorChordalDistributed(g, eps, dist.RunOpts{Observer: o, Faults: f, Part: part}, peelTrace)
}

func colorChordalDistributed(g *graph.Graph, eps float64, opts dist.RunOpts, peelTrace func(peel.LayerEvent)) (*ChordalColoring, error) {
	k, err := ColoringK(eps)
	if err != nil {
		return nil, err
	}
	outcome, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3 * k, Radius: 10 * k, RunOpts: opts})
	if err != nil {
		return nil, fmt.Errorf("distributed prune: %w", err)
	}
	o := opts.Observer
	ko, _ := o.(dist.KernelObserver)
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k, Trace: peelTrace, NoForests: true, Observer: ko, Snapshot: outcome.Snapshot})
	if err != nil {
		return nil, err
	}
	if err := outcome.checkLemma12(peeled); err != nil {
		return nil, err
	}
	rounds := outcome.Rounds
	col, err := colorLayers(k, peeled, &rounds, ko)
	if err != nil {
		return nil, err
	}
	// Correction-phase sanity: only nodes with parents may have been
	// recolored (they are the only ones that receive SetColor). The
	// walk is in index order, so the error names the lowest index.
	for i, v := range outcome.Snapshot.IDs() {
		if col.Colors[v] != col.Provisional[v] && outcome.Parent[i] < 0 {
			return nil, fmt.Errorf("node %d recolored without a parent", v)
		}
	}
	// Run the correction choreography with real messages and charge its
	// measured asynchronous schedule length.
	if ps, ok := o.(dist.PhaseSetter); ok {
		ps.SetPhase("correction")
	}
	corrRounds, err := RunCorrectionPhase(outcome, k, opts)
	if err != nil {
		return nil, err
	}
	col.Rounds = rounds + corrRounds
	return col, nil
}
