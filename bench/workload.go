package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/chordal"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/peel"
	"repro/internal/verify"
	"repro/internal/wire"
)

// pipeline selects which public entry points a workload calls.
type pipeline int

const (
	colorDist pipeline = iota // core.ColorChordalDistributed*: prune → color → correction
	misDist                   // core.MISChordalDistributed*: prune → MIS components
	central                   // core.ColorChordal + core.MISChordal, no engine at all
)

// workload is one input set and the pipeline it drives. Why each exists
// is in README.md; the one-line reasons are in BENCHMARK.json.
type workload struct {
	name     string
	pipeline pipeline
	// parts > 0 runs the message-passing phases on that many shard-host
	// child processes (internal/wire); 0 runs the in-process LOCAL engine.
	parts int
	eps   float64
	// graph builds the input from the seed; quick selects the tiny size
	// the smoke test uses.
	graph func(seed int64, quick bool) *graph.Graph
}

// hubTree is a binary tree of K4 hubs joined by chains, relabelled by the
// seed. Its diameter grows with depth×chainLen, so flood balls stay local
// (the default random generator has low diameter, balls cover the whole
// graph, and memory explodes).
func hubTree(depth, chainLen, quickDepth int) func(int64, bool) *graph.Graph {
	return func(seed int64, quick bool) *graph.Graph {
		d := depth
		if quick {
			d = quickDepth
		}
		g, _ := gen.RelabelRandom(gen.HubTree(d, chainLen), seed)
		return g
	}
}

// subtree is the Ekim–Shalom–Şeker subtree-intersection construction the
// repository's centralized million-node benchmark uses.
func subtree(n, quickN int) func(int64, bool) *graph.Graph {
	return func(seed int64, quick bool) *graph.Graph {
		size := n
		if quick {
			size = quickN
		}
		return gen.RandomChordalSubtree(size, 3, 6, seed)
	}
}

var workloads = []workload{
	{name: "color-local", pipeline: colorDist, eps: 0.5, graph: hubTree(7, 20, 4)},
	{name: "color-wire2", pipeline: colorDist, parts: 2, eps: 0.5, graph: hubTree(7, 20, 4)},
	{name: "mis-local", pipeline: misDist, eps: 0.9, graph: hubTree(3, 160, 2)},
	{name: "central", pipeline: central, eps: 0.5, graph: subtree(30000, 5000)},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instance is a set-up workload: the graph, its shard hosts when the
// workload is partitioned, and the optima the outputs are checked
// against (computed once, outside every timer).
type instance struct {
	w       *workload
	g       *graph.Graph
	cluster *wire.Cluster
	part    *dist.Partition
	omega   int
	alpha   int
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	gen, snapshot, cluster time.Duration
}

// setUp generates the graph and, for a partitioned workload, starts the
// shard hosts and ships them the graph's snapshot.
func setUp(w *workload, seed int64, quick bool) (*instance, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	in := &instance{w: w, g: w.graph(seed, quick)}
	t.gen = time.Since(start)
	if w.parts == 0 {
		return in, t, nil
	}
	start = time.Now()
	ix := graph.NewIndexed(in.g)
	t.snapshot = time.Since(start)
	start = time.Now()
	cluster, err := wire.StartCluster(w.parts, wire.SelfSpawn())
	if err != nil {
		return nil, t, err
	}
	in.cluster = cluster
	if in.part, err = cluster.Partition(ix); err != nil {
		in.close()
		return nil, t, err
	}
	t.cluster = time.Since(start)
	return in, t, nil
}

// close stops the shard hosts and waits for them to exit. Idempotent.
func (in *instance) close() error {
	if in.cluster == nil {
		return nil
	}
	err := in.cluster.Close()
	in.cluster, in.part = nil, nil
	return err
}

// prepareChecks computes ω and α, the optima the outputs are held to.
func (in *instance) prepareChecks() error {
	var err error
	if in.w.pipeline != misDist {
		if in.omega, err = chordal.CliqueNumber(in.g); err != nil {
			return err
		}
	}
	if in.w.pipeline != colorDist {
		if in.alpha, err = chordal.IndependenceNumber(in.g); err != nil {
			return err
		}
	}
	return nil
}

// outcome is what one pipeline run returns, reduced to what the checks
// and metrics need.
type outcome struct {
	colors              map[graph.ID]int // nil when the pipeline only computes an MIS
	colorsUsed, palette int
	omega               int
	set                 graph.Set // nil when the pipeline only colors
	rounds              int
}

// run calls the workload's public pipeline once. o is nil on timed runs
// (the engines' zero-cost path) and a Collector on traced runs.
func (in *instance) run(o dist.RoundObserver) (*outcome, error) {
	out := &outcome{}
	eps := in.w.eps
	switch in.w.pipeline {
	case colorDist:
		var col *core.ChordalColoring
		var err error
		if in.part != nil {
			col, err = core.ColorChordalDistributedFaultyPart(in.g, eps, o, nil, nil, in.part)
		} else {
			col, err = core.ColorChordalDistributedObserved(in.g, eps, o, nil)
		}
		if err != nil {
			return nil, err
		}
		out.setColoring(col)
	case misDist:
		var mis *core.ChordalMISResult
		var err error
		if in.part != nil {
			mis, err = core.MISChordalDistributedFaultyPart(in.g, eps, o, nil, nil, in.part)
		} else {
			mis, err = core.MISChordalDistributedObserved(in.g, eps, o, nil)
		}
		if err != nil {
			return nil, err
		}
		out.set, out.rounds = mis.Set, mis.Rounds
	case central:
		col, err := core.ColorChordalObserved(in.g, eps, o)
		if err != nil {
			return nil, err
		}
		out.setColoring(col)
		mis, err := core.MISChordalWithOptions(in.g, eps, core.ChordalMISOptions{Observer: o})
		if err != nil {
			return nil, err
		}
		out.set = mis.Set
		out.rounds += mis.Rounds
	}
	return out, nil
}

func (out *outcome) setColoring(col *core.ChordalColoring) {
	out.colors, out.colorsUsed, out.palette = col.Colors, col.ColorsUsed, col.Palette
	out.omega, out.rounds = col.Omega, col.Rounds
}

// check verifies one outcome: a coloring must be legal, use no more than
// its (1+ε) palette and report the true ω; an independent set must be
// independent and within (1+ε) of α.
func (in *instance) check(out *outcome) error {
	if out.colors != nil {
		used, err := verify.Coloring(in.g, out.colors)
		if err != nil {
			return fmt.Errorf("coloring: %w", err)
		}
		if used != out.colorsUsed || used > out.palette {
			return fmt.Errorf("coloring uses %d colors (reported %d, palette %d)", used, out.colorsUsed, out.palette)
		}
		if out.omega != in.omega {
			return fmt.Errorf("coloring reports ω=%d, true ω=%d", out.omega, in.omega)
		}
	}
	if out.set != nil {
		if err := independent(in.g, out.set); err != nil {
			return fmt.Errorf("independent set: %w", err)
		}
		if float64(len(out.set))*(1+in.w.eps) < float64(in.alpha) {
			return fmt.Errorf("independent set of %d nodes is below α/(1+ε) for α=%d, ε=%v", len(out.set), in.alpha, in.w.eps)
		}
	}
	return nil
}

// independent checks in O(n+m) that is is a set of distinct nodes of g
// with no edge inside. verify.IndependentSet tests every pair, which is
// quadratic in |I| and too slow for the central workload's sets.
func independent(g *graph.Graph, is graph.Set) error {
	in := make(map[graph.ID]bool, len(is))
	for _, v := range is {
		if !g.HasNode(v) {
			return fmt.Errorf("node %d not in graph", v)
		}
		if in[v] {
			return fmt.Errorf("node %d listed twice", v)
		}
		in[v] = true
	}
	for _, v := range is {
		for _, u := range g.Neighbors(v) {
			if in[u] {
				return fmt.Errorf("members %d and %d are adjacent", v, u)
			}
		}
	}
	return nil
}

// ratios are the approximation quality of one outcome: colors used per
// ω (χ = ω on chordal graphs) and α per independent-set size. A ratio
// the pipeline does not produce is 0.
func (in *instance) ratios(out *outcome) (color, mis float64) {
	if out.colors != nil {
		color = float64(out.colorsUsed) / float64(in.omega)
	}
	if out.set != nil {
		mis = float64(in.alpha) / float64(len(out.set))
	}
	return color, mis
}

// digest fingerprints an outcome's coloring and independent set, so runs
// (and the partitioned run against its LOCAL reference) can be compared
// without keeping every output.
func (out *outcome) digest() uint64 {
	h := fnv.New64a()
	ids := make([]graph.ID, 0, len(out.colors))
	for v := range out.colors {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		fmt.Fprintf(h, "%d:%d,", v, out.colors[v])
	}
	set := append(graph.Set(nil), out.set...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	fmt.Fprintf(h, "|%v|%d", set, out.rounds)
	return h.Sum64()
}

// peelOptions are the peel.Run options the workload's pipeline uses, so
// the peeling layer can be timed as a standalone call.
func (w *workload) peelOptions() []peel.Options {
	k := core.EffectiveK(w.eps)
	colorOpts := peel.Options{InternalDiameter: 3 * k, NoForests: true}
	d, iterations := core.MISChordalParams(w.eps)
	misOpts := peel.Options{InternalDiameter: 2*d + 3, MaxIterations: iterations, FinalAlpha: d, NoForests: true}
	switch w.pipeline {
	case colorDist:
		return []peel.Options{colorOpts}
	case misDist:
		return []peel.Options{misOpts}
	default:
		return []peel.Options{colorOpts, misOpts}
	}
}
