package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cliquetree"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// TestDecideKernelDeterministicAcrossWorkers requires the parallel
// decide kernel to produce bit-identical outcomes — layers, parents,
// iteration and round counts, traffic counters — at GOMAXPROCS 1 (the
// sequential loop), 2 and 4, on workloads whose balls cover their
// component and on workloads whose balls the radius clips.
func TestDecideKernelDeterministicAcrossWorkers(t *testing.T) {
	graphs := map[string]*graph.Graph{
		// Small diameter: every ball covers its component.
		"chordal150": gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 9),
		// Diameter far beyond the radius: clipped balls.
		"tree400": gen.Tree(400, 11),
		"path200": gen.Path(200),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			var ref *PruneOutcome
			proctest.Sweep(func(procs int) {
				out, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 6, Radius: 20})
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if ref == nil {
					ref = out
					return
				}
				if out.Rounds != ref.Rounds || out.Iterations != ref.Iterations ||
					out.Messages != ref.Messages || out.Volume != ref.Volume {
					t.Fatalf("procs=%d: counters (rounds=%d iter=%d msgs=%d vol=%d), want (%d,%d,%d,%d)",
						procs, out.Rounds, out.Iterations, out.Messages, out.Volume,
						ref.Rounds, ref.Iterations, ref.Messages, ref.Volume)
				}
				if !reflect.DeepEqual(out.Layer, ref.Layer) {
					t.Fatalf("procs=%d: layer assignment differs from procs=1", procs)
				}
				if !reflect.DeepEqual(out.Parent, ref.Parent) {
					t.Fatalf("procs=%d: parent assignment differs from procs=1", procs)
				}
			})
		})
	}
}

// TestDecideKernelAlphaRuleDeterministicAcrossWorkers sweeps GOMAXPROCS
// over the MIS pipeline (Algorithm 6), which exercises the decide
// kernel's α-rule last iteration on top of the diameter rule.
func TestDecideKernelAlphaRuleDeterministicAcrossWorkers(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 5)
	var ref *ChordalMISResult
	proctest.Sweep(func(procs int) {
		out, err := MISChordalDistributed(g, 0.4)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if ref == nil {
			ref = out
			return
		}
		if out.Rounds != ref.Rounds || out.Iterations != ref.Iterations {
			t.Fatalf("procs=%d: rounds=%d iter=%d, want rounds=%d iter=%d",
				procs, out.Rounds, out.Iterations, ref.Rounds, ref.Iterations)
		}
		if !reflect.DeepEqual(out.Set, ref.Set) {
			t.Fatalf("procs=%d: MIS differs from procs=1", procs)
		}
	})
}

// c4Wheel is a C4 with a hub joined to all four cycle nodes: the
// cycle is an induced 4-cycle, so the graph is not chordal.
func c4Wheel() *graph.Graph {
	return graph.FromEdges(nil, [][2]graph.ID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // C4
		{0, 4}, {1, 4}, {2, 4}, {3, 4}, // hub
	})
}

// c4WheelError is the text the prune's up-front chordality check gives
// for c4Wheel.
const c4WheelError = "graph is not chordal (n=5, m=8)"

// TestDecideKernelErrorDeterministicAcrossWorkers checks that the
// prune's error on non-chordal input does not depend on GOMAXPROCS.
// The up-front chordality check rejects the C4 wheel before the first
// flood, so no decide kernel runs; the test pins that check's text at
// GOMAXPROCS 1, 2 and 4.
func TestDecideKernelErrorDeterministicAcrossWorkers(t *testing.T) {
	g := c4Wheel()
	proctest.Sweep(func(procs int) {
		_, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3, Radius: 10})
		if err == nil || err.Error() != c4WheelError {
			t.Fatalf("procs=%d: error %v, want %q", procs, err, c4WheelError)
		}
	})
}

// TestDecideErrorAppliesNothing checks that a rejected prune returns no
// outcome alongside its error: the up-front chordality check fails the
// C4 wheel before any layer or parent is assigned.
func TestDecideErrorAppliesNothing(t *testing.T) {
	out, err := DistributedPruneSpec(c4Wheel(), PruneSpec{DiamThreshold: 3, Radius: 10})
	if err == nil || err.Error() != c4WheelError {
		t.Fatalf("error %v, want %q", err, c4WheelError)
	}
	if out != nil {
		t.Fatalf("outcome must be nil on error, got %+v", out)
	}
}

// TestDecideKernelRaceStress drives the parallel kernel at GOMAXPROCS
// shards on a workload with several iterations; under `make race` this
// is the dedicated stress entry for the iteration's shared clique
// forest, the shared knowledge and undecided mask, and the per-shard
// result slots.
func TestDecideKernelRaceStress(t *testing.T) {
	g := gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.3}, 21)
	out, err := DistributedPrune(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range out.Layer {
		if l == 0 {
			t.Fatalf("node %d never decided", out.Snapshot.IDOf(i))
		}
	}
}

// TestCenterBFSMatchesGraphBFS drives the lazy center BFS against
// graph.BFSDistances on the center's view, G_i restricted to its
// knowledge, built as a map-backed induced subgraph. Every node is
// asked about at limits 0…radius in three orders: ascending index at
// each limit in turn, descending true distance (unreachable first) at
// each limit in turn, and a seeded shuffle of all the (node, limit)
// questions. After every question the answer and every stamped distance
// must be the reference's, and no node farther than the largest limit
// asked so far may be stamped. The balls are clipped, a third of the
// nodes are decided, and a second component stays unreachable.
func TestCenterBFSMatchesGraphBFS(t *testing.T) {
	g := gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 13)
	g.AddEdge(1000, 1001)
	ix := graph.NewIndexed(g)
	const radius = 3
	know, _, err := dist.Flood(ix, radius, dist.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ids := ix.IDs()
	undecided := make([]bool, len(ids))
	for i, v := range ids {
		undecided[i] = v%3 != 1 || v >= 1000
	}
	type question struct {
		u     int32
		limit int
	}
	atEachLimit := func(order []int32) []question {
		var qs []question
		for limit := 0; limit <= radius; limit++ {
			for _, u := range order {
				qs = append(qs, question{u, limit})
			}
		}
		return qs
	}
	rng := rand.New(rand.NewSource(5))
	var sc decideScratch // one scratch across centers, as in the kernel
	var forest cliquetree.CSRForest
	questions := 0
	for c, v := range ids {
		if !undecided[c] {
			continue
		}
		var view []graph.ID
		for i, u := range ids {
			if undecided[i] && know[c].KnownIdx(int32(i)) {
				view = append(view, u)
			}
		}
		ref := g.InducedSubgraph(view).BFSDistances(v)
		want := make([]int, len(ids)) // -1 = outside the center's view
		ascending := make([]int32, len(ids))
		for i, u := range ids {
			want[i] = -1
			if d, ok := ref[u]; ok {
				want[i] = d
			}
			ascending[i] = int32(i)
		}
		farness := func(i int32) int {
			if want[i] < 0 {
				return math.MaxInt
			}
			return want[i]
		}
		farFirst := slices.Clone(ascending)
		slices.SortStableFunc(farFirst, func(a, b int32) int { return cmp.Compare(farness(b), farness(a)) })
		shuffled := atEachLimit(ascending)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for k, qs := range [][]question{atEachLimit(ascending), atEachLimit(farFirst), shuffled} {
			sc.beginCenter(ix, &forest, know[c], undecided, radius)
			sc.centerBFS(int32(c))
			asked := 0
			for _, q := range qs {
				asked = max(asked, q.limit)
				got := sc.reachWithin(q.u, q.limit)
				if d := want[q.u]; got != (d >= 0 && d <= q.limit) {
					t.Fatalf("center %d order %d: node %d within %d is %v, reference distance %d", v, k, ids[q.u], q.limit, got, d)
				}
				for i := range ids {
					if sc.reach[i] != sc.epoch {
						continue
					}
					if d := int(sc.dist[i]); d != want[i] || d > asked {
						t.Fatalf("center %d order %d: node %d stamped at %d after limits up to %d, reference distance %d", v, k, ids[i], d, asked, want[i])
					}
				}
				questions++
			}
		}
	}
	t.Logf("%d questions checked", questions)
}

// TestCenterBFSIndependentOfRadius pins the center BFS's work to what
// the decide rules read. On a relabelled hub tree, one diameter-rule
// iteration at threshold 30 decides every center at radius 100 and at
// radius 400: every walk ends at a leaf or a hub well inside both
// radii, so the decisions must agree, and so must the number of nodes
// the center BFSes stamp, summed over all centers. A BFS that walked
// each center's whole known component would stamp more at the larger
// radius.
func TestCenterBFSIndependentOfRadius(t *testing.T) {
	g, _ := gen.RelabelRandom(gen.HubTree(3, 40), 1)
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()
	undecided := make([]bool, n)
	for i := range undecided {
		undecided[i] = true
	}
	var forest cliquetree.CSRForest
	if err := cliquetree.NewBuilder(ix).Build(undecided, n, &forest); err != nil {
		t.Fatal(err)
	}
	rule := decideRule{diamThreshold: 30, parentHorizon: 13}
	decideAll := func(radius int) ([]decideResult, int) {
		know, _, err := dist.Flood(ix, radius, dist.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]decideResult, n)
		var sc decideScratch
		stamped := 0
		for c := range n {
			peel, parent := decideCenter(&sc, ix, &forest, know[c], undecided, int32(c), rule, radius)
			results[c] = decideResult{peel: peel, parent: parent}
			stamped += len(sc.queue)
		}
		return results, stamped
	}
	near, nearStamped := decideAll(100)
	far, farStamped := decideAll(400)
	peeled := 0
	for c := range n {
		if near[c] != far[c] {
			t.Fatalf("center %d: %+v at radius 100, %+v at radius 400", ix.IDOf(c), near[c], far[c])
		}
		if near[c].peel {
			peeled++
		}
	}
	if peeled == 0 || peeled == n {
		t.Fatalf("%d of %d centers peeled: want both decisions", peeled, n)
	}
	if nearStamped != farStamped {
		t.Fatalf("center BFSes stamp %d nodes at radius 100 and %d at radius 400", nearStamped, farStamped)
	}
	t.Logf("%d nodes, %d peeled, %d stamped at both radii", n, peeled, nearStamped)
}

// TestDecideScratchEpochCrossesInt32Boundary decides every center of a
// prune's first iteration on a scratch whose epoch and BFS stamp sit at
// the int32 ceiling and whose every mark holds 1, the value both wrap
// back to (and every center distance 1). The decision must match the one before the marks went stale,
// and every anchored diameter the whole-view BFS; a member BFS whose
// stamp wraps onto stale marks must measure what it measured before.
// None of that holds if a mark survives the wrap.
func TestDecideScratchEpochCrossesInt32Boundary(t *testing.T) {
	g, _ := gen.RelabelRandom(gen.HubTree(3, 12), 4)
	ix := graph.NewIndexed(g)
	const radius = 20
	know, _, err := dist.Flood(ix, radius, dist.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ix.NumNodes()
	undecided := make([]bool, n)
	for i := range undecided {
		undecided[i] = true
	}
	var forest cliquetree.CSRForest
	if err := cliquetree.NewBuilder(ix).Build(undecided, n, &forest); err != nil {
		t.Fatal(err)
	}
	rule := decideRule{diamThreshold: 6, parentHorizon: 5}
	decide := func(sc *decideScratch, c int) decideResult {
		peel, parent := decideCenter(sc, ix, &forest, know[c], undecided, int32(c), rule, radius)
		return decideResult{peel: peel, parent: parent}
	}
	stale := func(marks ...[]int32) {
		for _, m := range marks {
			for i := range m {
				m[i] = 1
			}
		}
	}
	measured, mismatched := 0, 0
	anchoredDiameterProbe = func(sc *decideScratch, d int) {
		measured++
		if d != wholeBallAnchoredDiameter(sc) {
			mismatched++
		}
	}
	defer func() { anchoredDiameterProbe = nil }()
	peeled, bfsChecked := 0, 0
	for c := range n {
		var sc decideScratch
		want := decide(&sc, c)
		if want.peel {
			peeled++
		}
		// A decision that measured a diameter leaves its walk's members
		// marked: rerun one member BFS across the stamp's wrap.
		if len(sc.members) > 0 {
			src, k := sc.members[0], len(sc.members)
			before := sc.memberBFS(src, k)
			stale(sc.bfsMark)
			sc.bfsStamp = math.MaxInt32
			if after := sc.memberBFS(src, k); after != before {
				t.Fatalf("center %d: member BFS from %d measures %d across the stamp wrap, %d before", ix.IDOf(c), ix.IDOf(int(src)), after, before)
			}
			bfsChecked++
		}
		stale(sc.inWalked, sc.inDiam, sc.reach, sc.dist, sc.memMark, sc.anchorMark, sc.bfsMark)
		sc.epoch, sc.bfsStamp = math.MaxInt32, math.MaxInt32
		if got := decide(&sc, c); got != want {
			t.Fatalf("center %d: %+v across the epoch wrap, %+v before", ix.IDOf(c), got, want)
		}
		if sc.epoch != 1 {
			t.Fatalf("center %d: epoch %d after the wrap, want 1", ix.IDOf(c), sc.epoch)
		}
	}
	if mismatched > 0 {
		t.Fatalf("%d of %d anchored diameters differ from the whole-view BFS", mismatched, measured)
	}
	if peeled == 0 || peeled == n || bfsChecked == 0 {
		t.Fatalf("%d of %d centers peeled, %d member BFSs checked: want both decisions and a BFS", peeled, n, bfsChecked)
	}
}

// wholeBallAnchoredDiameter is the reference walkedDiameter replaces:
// a BFS over the center's whole view — the snapshot's rows filtered to
// undecided, known nodes — from every member of the walk's extreme
// cliques, maximized over the walked members it reaches. It reads only
// the walk (sc.walked, the forest rows) and the view's definition
// (sc.undecided, sc.know), never the kernel's epoch marks.
func wholeBallAnchoredDiameter(sc *decideScratch) int {
	inView := func(u int32) bool { return sc.undecided[u] && sc.know.KnownIdx(u) }
	inWalk := make(map[int32]bool, len(sc.walked))
	for _, ci := range sc.walked {
		inWalk[ci] = true
	}
	var members []int32
	for _, ci := range sc.walked {
		members = append(members, sc.forest.Clique(ci)...)
	}
	best := 0
	for _, ci := range sc.walked {
		inside := 0
		for _, nb := range sc.forest.Nbrs(ci) {
			if inWalk[nb] {
				inside++
			}
		}
		if inside > 1 {
			continue
		}
		for _, src := range sc.forest.Clique(ci) {
			if !inView(src) {
				continue
			}
			depth := map[int32]int{src: 0}
			queue := []int32{src}
			for h := 0; h < len(queue); h++ {
				for _, u := range sc.ix.NeighborIndices(int(queue[h])) {
					if _, seen := depth[u]; !seen && inView(u) {
						depth[u] = depth[queue[h]] + 1
						queue = append(queue, u)
					}
				}
			}
			for _, u := range members {
				if d, ok := depth[u]; ok && d > best {
					best = d
				}
			}
		}
	}
	return best
}

// TestAnchoredDiameterMatchesWholeBall pins the member-restricted
// anchored diameter to the whole-view BFS it replaced, on every decide
// the pruning phase makes over each generator family, fault-free and
// under a lossy, duplicating, delaying schedule (whose truncated balls
// stress the clipped views; the prune may fail afterwards, but every
// diameter it measured must still match).
func TestAnchoredDiameterMatchesWholeBall(t *testing.T) {
	families := decideFamilies()
	faults, err := dist.ParseFaults("drop=0.2,dup=0.2,delay=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	checked, mismatched := 0, 0
	anchoredDiameterProbe = func(sc *decideScratch, d int) {
		want := wholeBallAnchoredDiameter(sc)
		mu.Lock()
		defer mu.Unlock()
		checked++
		if d != want && mismatched < 5 {
			mismatched++
			t.Errorf("anchored diameter %d, whole-view BFS says %d", d, want)
		}
	}
	defer func() { anchoredDiameterProbe = nil }()
	for name, g := range families {
		for _, f := range []*dist.Faults{nil, faults} {
			before := checked
			_, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 6, Radius: 20, RunOpts: dist.RunOpts{Faults: f}})
			if err != nil && f == nil {
				t.Fatalf("%s: %v", name, err)
			}
			// An interval graph's clique forest is a single path, peeled
			// whole as a pendant path: it never reaches the diameter rule.
			if f == nil && checked == before && name != "interval" {
				t.Errorf("%s: the prune measured no anchored diameter", name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no anchored diameter was measured")
	}
	t.Logf("%d anchored diameters checked", checked)
}

// decideFamilies is one graph of each generator family, sized so a
// prune over each takes a fraction of a second.
func decideFamilies() map[string]*graph.Graph {
	hub, _ := gen.RelabelRandom(gen.HubTree(3, 12), 4)
	return map[string]*graph.Graph{
		"chordal":     gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 3),
		"interval":    gen.RandomInterval(120, 60, 2.5, 5),
		"tree":        gen.Tree(150, 7),
		"path":        gen.Path(120),
		"ktree":       gen.KTree(120, 3, 9),
		"subtree":     gen.RandomChordalSubtree(150, 3, 6, 11),
		"hubtree":     hub,
		"caterpillar": gen.Caterpillar(60, 2),
	}
}

// TestPruneForestMatchesLocalCliques checks the clique forest the decide
// kernel reads against Lemma 2's per-node computation, the rows a center
// derives from its own ball. In every iteration i of a prune, G_i's
// canonical forest (cliquetree.Builder over the nodes still undecided
// in iteration i) must give every undecided u the cliques
// φ(u) = MaximalCliquesContaining(G_i, u), and its edges among φ(u) must
// be T(u) = MaxWeightSpanningForest(φ(u), WCIG(φ(u))). It runs over
// every family of decideFamilies and the quick-size relabelled hub trees
// of the coloring and MIS benchmarks, under Algorithm 2's diameter rule
// and under an α-rule spec in the shape of Algorithm 6.
func TestPruneForestMatchesLocalCliques(t *testing.T) {
	families := decideFamilies()
	for _, dc := range [][2]int{{4, 20}, {2, 160}} {
		families[fmt.Sprintf("hubtree(%d,%d)", dc[0], dc[1])], _ = gen.RelabelRandom(gen.HubTree(dc[0], dc[1]), 1)
	}
	specs := map[string]PruneSpec{
		"diameter": {DiamThreshold: 6, Radius: 20},
		"alpha":    {DiamThreshold: 9, Radius: 30, MaxIterations: 3, FinalAlpha: 5},
	}
	checked := 0
	for name, g := range families {
		for rule, spec := range specs {
			out, err := DistributedPruneSpec(g, spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, rule, err)
			}
			checked += checkPruneForests(t, name+"/"+rule, g, out)
		}
	}
	t.Logf("%d node rows checked", checked)
}

// checkPruneForests rebuilds each iteration's forest from out.Layer,
// compares every undecided node's rows with the per-node computation,
// and returns the number of node rows it compared.
func checkPruneForests(t *testing.T, name string, g *graph.Graph, out *PruneOutcome) int {
	t.Helper()
	checked := 0
	ids := out.Snapshot.IDs()
	builder := cliquetree.NewBuilder(out.Snapshot)
	var f cliquetree.CSRForest
	alive := make([]bool, len(ids))
	for i := 1; i <= out.Iterations; i++ {
		var undecided []int32
		var undecidedIDs []graph.ID
		for v, l := range out.Layer {
			alive[v] = l == 0 || int(l) >= i
			if alive[v] {
				undecided = append(undecided, int32(v))
				undecidedIDs = append(undecidedIDs, ids[v])
			}
		}
		if err := builder.Build(alive, len(undecided), &f); err != nil {
			t.Fatalf("%s iteration %d: %v", name, i, err)
		}
		gi := g.InducedSubgraph(undecidedIDs)
		for _, u := range undecided {
			phi, err := cliquetree.MaximalCliquesContaining(gi, ids[u])
			if err != nil {
				t.Fatalf("%s iteration %d node %d: %v", name, i, ids[u], err)
			}
			posOf := make(map[string]int, len(phi))
			for j, c := range phi {
				posOf[fmt.Sprint(c)] = j
			}
			// Forest clique id -> position in φ(u).
			row := f.PhiRow(u)
			local := make(map[int32]int, len(row))
			for _, c := range row {
				set := make(graph.Set, 0, len(f.Clique(c)))
				for _, m := range f.Clique(c) {
					set = append(set, ids[m])
				}
				j, ok := posOf[fmt.Sprint(set)]
				if !ok {
					t.Fatalf("%s iteration %d node %d: forest clique %v is not a maximal clique of G_i containing it", name, i, ids[u], set)
				}
				local[c] = j
			}
			if len(local) != len(phi) {
				t.Fatalf("%s iteration %d node %d: forest has %d cliques, φ has %d", name, i, ids[u], len(local), len(phi))
			}
			var got [][2]int
			for _, c := range row {
				for _, nb := range f.Nbrs(c) {
					if j, ok := local[nb]; ok && local[c] < j {
						got = append(got, [2]int{local[c], j})
					}
				}
			}
			var want [][2]int
			for _, e := range cliquetree.MaxWeightSpanningForest(phi, cliquetree.WCIG(phi)) {
				want = append(want, [2]int{min(e[0], e[1]), max(e[0], e[1])})
			}
			for _, es := range [][][2]int{got, want} {
				slices.SortFunc(es, func(a, b [2]int) int {
					return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
				})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s iteration %d node %d: forest edges among φ %v, T(u) %v", name, i, ids[u], got, want)
			}
			checked++
		}
	}
	return checked
}

// TestPruneRejectsRadiusBelowTwo: the decide kernel needs a knowledge
// radius of at least 2, which the 3× threshold check admits below only
// with DiamThreshold 0. Such a spec fails up front with an error naming
// the radius, instead of flooding and then reporting that an iteration
// peeled nothing.
func TestPruneRejectsRadiusBelowTwo(t *testing.T) {
	k3 := graph.New()
	k3.AddEdge(1, 2)
	k3.AddEdge(2, 3)
	k3.AddEdge(1, 3)
	for _, radius := range []int{0, 1} {
		for name, g := range map[string]*graph.Graph{"K3": k3, "path": gen.Path(8), "star": gen.Star(6)} {
			_, err := DistributedPruneSpec(g, PruneSpec{Radius: radius})
			want := fmt.Sprintf("radius %d too small", radius)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s at radius %d: %v, want an error containing %q", name, radius, err, want)
			}
		}
	}
}
