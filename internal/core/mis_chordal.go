package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/peel"
)

// ChordalMISResult is the outcome of the (1+ε)-approximate chordal MIS.
type ChordalMISResult struct {
	Set        graph.Set
	D          int
	Iterations int
	Rounds     int
	// ExactComponents / ApproxComponents count the two branches of
	// Algorithm 6's inner loop.
	ExactComponents  int
	ApproxComponents int
}

// MISChordalParams returns Algorithm 6's parameters d = ⌈64/ε⌉ and
// k = ⌈log(d/ε)⌉ + 2.
func MISChordalParams(eps float64) (d, iterations int) {
	d = int(math.Ceil(64 / eps))
	iterations = int(math.Ceil(math.Log2(float64(d)/eps))) + 2
	return d, iterations
}

// MISChordal implements Algorithm 6, the deterministic
// (1+ε)-approximation for Maximum Independent Set on chordal graphs
// (Theorems 7–8): the peeling process runs for Θ(log(1/ε)) iterations
// (with the last iteration peeling internal paths of independence number
// ≥ d), and each peeled path contributes either an absorbing maximum
// independent set (small components) or a (1+ε/8)-approximate set via the
// interval algorithm (large components).
func MISChordal(g *graph.Graph, eps float64) (*ChordalMISResult, error) {
	return MISChordalWithOptions(g, eps, ChordalMISOptions{})
}

// ChordalMISOptions toggles ablations of Algorithm 6's design choices.
type ChordalMISOptions struct {
	// DisableAbsorbing replaces the absorbing maximum independent sets of
	// small components with arbitrary maximum independent sets, ablating
	// the design choice Section 7.1 motivates (experiment E14/ablation).
	DisableAbsorbing bool
	// Observer, when it implements dist.KernelObserver, receives
	// per-worker kernel spans from the sharded stages: "peel-measure"
	// (the peeling path measurement) and one "mis-components" launch per
	// peeled path (its components' independent sets, small ones in index
	// space). nil keeps the zero-cost fast path; the result is
	// bit-identical either way.
	Observer dist.RoundObserver
}

// MISChordalWithOptions is MISChordal with ablation switches.
func MISChordalWithOptions(g *graph.Graph, eps float64, opts ChordalMISOptions) (*ChordalMISResult, error) {
	if err := checkEpsilon(eps, 64, true); err != nil {
		return nil, err
	}
	d, iterations := MISChordalParams(eps)
	res := &ChordalMISResult{D: d, Iterations: iterations}
	ko, _ := opts.Observer.(dist.KernelObserver)
	peeled, err := peel.Run(g, peel.Options{
		InternalDiameter: 2*d + 3,
		MaxIterations:    iterations,
		FinalAlpha:       d,
		NoForests:        true,
		Observer:         ko,
	})
	if err != nil {
		return nil, fmt.Errorf("peeling: %w", err)
	}
	// LOCAL accounting: each iteration collects a Θ(d)-ball to identify
	// paths and thresholds.
	res.Rounds = len(peeled.Layers) * (2*d + 4)
	if err := misFromPeel(peeled, d, eps, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// MISChordalDistributed runs Algorithm 6 with the pruning phase executed
// by genuine per-node message passing and local views (the Theorem 8
// pipeline). Like ColorChordalDistributed, it self-checks the distributed
// layer partition against the centralized peel and fails loudly on
// divergence.
func MISChordalDistributed(g *graph.Graph, eps float64) (*ChordalMISResult, error) {
	return MISChordalDistributedObserved(g, eps, nil, nil)
}

// MISChordalDistributedObserved is MISChordalDistributed with
// observability hooks: o (may be nil) observes every pruning flood,
// phase-labeled per iteration, and peelTrace (may be nil) receives the
// centralized cross-check peel's per-layer events.
func MISChordalDistributedObserved(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent)) (*ChordalMISResult, error) {
	return misChordalDistributed(g, eps, dist.RunOpts{Observer: o}, peelTrace)
}

// MISChordalDistributedFaultyPart is MISChordalDistributedObserved with
// a fault schedule attached to every pruning flood and the floods
// executed on part (shard hosts that may live in other processes), or
// on the in-process engine when part is nil. The post-prune stages are
// centralized either way, so the MIS is byte-identical to the LOCAL run
// on the same seed. Duplication and delay are absorbed (the MIS is
// byte-identical to the fault-free run); drops corrupt the pruning
// layers and are caught by the centralized cross-check, and crashes
// surface as runtime errors.
func MISChordalDistributedFaultyPart(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent), f *dist.Faults, part *dist.Partition) (*ChordalMISResult, error) {
	return misChordalDistributed(g, eps, dist.RunOpts{Observer: o, Faults: f, Part: part}, peelTrace)
}

func misChordalDistributed(g *graph.Graph, eps float64, opts dist.RunOpts, peelTrace func(peel.LayerEvent)) (*ChordalMISResult, error) {
	if err := checkEpsilon(eps, 64, true); err != nil {
		return nil, err
	}
	d, iterations := MISChordalParams(eps)
	spec := PruneSpec{
		DiamThreshold: 2*d + 3,
		Radius:        3*(2*d+3) + 2,
		MaxIterations: iterations,
		FinalAlpha:    d,
		RunOpts:       opts,
	}
	outcome, err := DistributedPruneSpec(g, spec)
	if err != nil {
		return nil, fmt.Errorf("distributed prune: %w", err)
	}
	o := opts.Observer
	ko, _ := o.(dist.KernelObserver)
	peeled, err := peel.Run(g, peel.Options{
		InternalDiameter: 2*d + 3,
		MaxIterations:    iterations,
		FinalAlpha:       d,
		Trace:            peelTrace,
		NoForests:        true,
		Observer:         ko,
		Snapshot:         outcome.Snapshot,
	})
	if err != nil {
		return nil, err
	}
	if err := outcome.checkLemma12(peeled); err != nil {
		return nil, err
	}
	res := &ChordalMISResult{D: d, Iterations: iterations, Rounds: outcome.Rounds}
	if err := misFromPeel(peeled, d, eps, ChordalMISOptions{Observer: o}, res); err != nil {
		return nil, err
	}
	return res, nil
}

// misFromPeel runs Algorithm 6's per-layer independent-set computation
// over a peel result, accumulating into res. Per-record state lives in
// index-keyed slices over the peel's snapshot, and the per-component
// computations — pure functions of the component and rec that never
// consult the cross-record blocked state — run sharded over CPUs with
// per-component result slots merged in component order, so the output
// is bit-identical to the sequential loop at every GOMAXPROCS.
func misFromPeel(peeled *peel.Result, d int, eps float64, opts ChordalMISOptions, res *ChordalMISResult) error {
	ix := peeled.Snapshot
	ids := ix.IDs()
	ko, _ := opts.Observer.(dist.KernelObserver)
	// Nodes excluded once a neighbor joins I (Γ_G[I] grows as we go),
	// by snapshot index: IDs may be negative or far above n.
	blocked := make([]bool, ix.NumNodes())
	inAvail := make([]bool, ix.NumNodes())
	inComp := make([]bool, ix.NumNodes())
	var avail, queue []int32
	var comps [][]int32
	// A slot's set is scratches[shard].out[off:off+n], by snapshot index.
	type compSlot struct {
		shard, off, n int32
		rounds        int
		exact         bool
		err           error
	}
	var slots []compSlot
	var scratches []*misScratch
	maxComponentRounds := 0
	for li, layer := range peeled.Layers {
		last := li == len(peeled.Layers)-1
		for ri := range layer.Paths {
			rec := &layer.Paths[ri]
			avail = avail[:0]
			for _, i := range rec.Nodes {
				if !blocked[i] {
					avail = append(avail, i)
					inAvail[i] = true
				}
			}
			// Components of G[avail], discovered from ascending indices:
			// ordered by smallest member with sorted members, exactly as
			// Components() on the induced subgraph.
			comps = comps[:0]
			for _, start := range avail {
				if inComp[start] {
					continue
				}
				queue = queue[:0]
				queue = append(queue, start)
				inComp[start] = true
				for i := 0; i < len(queue); i++ {
					for _, u := range ix.NeighborIndices(int(queue[i])) {
						if inAvail[u] && !inComp[u] {
							inComp[u] = true
							queue = append(queue, u)
						}
					}
				}
				comp := make([]int32, len(queue))
				copy(comp, queue)
				slices.Sort(comp)
				comps = append(comps, comp)
			}
			if cap(slots) < len(comps) {
				slots = make([]compSlot, len(comps))
			}
			slots = slots[:len(comps)]
			shards := dist.KernelShards(len(comps))
			for len(scratches) < shards {
				scratches = append(scratches, &misScratch{})
			}
			for _, s := range scratches[:shards] {
				s.out = s.out[:0]
			}
			dist.RunKernel("mis-components", len(comps), shards, ko, func(shard, lo, hi int) {
				s := scratches[shard]
				for ci := lo; ci < hi; ci++ {
					off := len(s.out)
					rounds, exact, err := s.componentIS(ix, comps[ci], rec, d, last, eps, opts)
					slots[ci] = compSlot{shard: int32(shard), off: int32(off), n: int32(len(s.out) - off), rounds: rounds, exact: exact, err: err}
				}
			})
			for ci := range slots {
				slot := &slots[ci]
				if slot.err != nil {
					return fmt.Errorf("layer %d: %w", layer.Index, slot.err)
				}
				if slot.exact {
					res.ExactComponents++
				} else {
					res.ApproxComponents++
				}
				maxComponentRounds = max(maxComponentRounds, slot.rounds)
				for _, i := range scratches[slot.shard].out[slot.off : slot.off+slot.n] {
					res.Set = append(res.Set, ids[i])
					blocked[i] = true
					for _, u := range ix.NeighborIndices(int(i)) {
						blocked[u] = true
					}
				}
			}
			for _, i := range avail {
				inAvail[i] = false
				inComp[i] = false
			}
		}
	}
	res.Rounds += maxComponentRounds
	res.Set = graph.NewSet(res.Set...)
	return nil
}

// componentIS computes the independent set of one maximal connected
// subgraph H of a peeled path's available nodes, given as comp (its
// snapshot indices, ascending), and appends it to s.out. A small
// component (α < d) takes an exact maximum independent set, in index
// space (absorbingComponent), which before the last iteration must also
// absorb with respect to the outside clique the component touches; a
// large one builds H as a graph.Graph for the interval algorithm.
func (s *misScratch) componentIS(ix *graph.Indexed, comp []int32, rec *peel.PathRecord, d int, last bool, eps float64, opts ChordalMISOptions) (int, bool, error) {
	if s.absorbingComponent(ix, comp, rec, d, !last && !opts.DisableAbsorbing) < d {
		return 2*(d-1) + 2, true, nil
	}
	ids := ix.IDs()
	h := graph.New()
	for p, x := range comp {
		h.AddNode(ids[x])
		for _, q := range s.row(int32(p)) {
			if int(q) > p {
				h.AddEdge(ids[x], ids[comp[q]])
			}
		}
	}
	// The record's clique path, restricted to H, is a model of H.
	path := make([]graph.Set, len(rec.Cliques))
	for i, c := range rec.Cliques {
		path[i] = ix.IDSet(c)
	}
	im, err := misInterval(h, interval.RestrictCliquePath(path, h.HasNode), eps/8)
	if err != nil {
		return 0, false, err
	}
	for _, v := range im.Set {
		x, _ := ix.IndexOf(v)
		s.out = append(s.out, int32(x))
	}
	return im.Rounds, false, nil
}
