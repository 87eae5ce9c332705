package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// TestDecideKernelDeterministicAcrossWorkers requires the parallel
// decide kernel to produce bit-identical outcomes — layers, parents,
// iteration and round counts, traffic counters — at GOMAXPROCS 1 (the
// sequential loop), 2 and 4, on workloads covering both view paths:
// balls that cover their component (shared G_i ball) and balls clipped
// by the radius (per-center index-space rebuild).
func TestDecideKernelDeterministicAcrossWorkers(t *testing.T) {
	graphs := map[string]*graph.Graph{
		// Small diameter: every ball covers its component.
		"chordal150": gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 9),
		// Diameter far beyond the radius: per-center ball rebuilds.
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

// TestDecideKernelErrorDeterministicAcrossWorkers checks first-error-
// wins semantics: on a non-chordal input the failing center — and hence
// the error text — must not depend on GOMAXPROCS. The graph is a
// C4 wheel: node 4's closed neighborhood contains an induced 4-cycle,
// so the first center in snapshot-index order whose walk ensures node 4
// (center 0) reports the failure.
func TestDecideKernelErrorDeterministicAcrossWorkers(t *testing.T) {
	g := graph.FromEdges(nil, [][2]graph.ID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // C4
		{0, 4}, {1, 4}, {2, 4}, {3, 4}, // hub
	})
	var ref error
	proctest.Sweep(func(procs int) {
		_, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3, Radius: 10})
		if err == nil {
			t.Fatalf("procs=%d: expected a non-chordal error", procs)
		}
		if ref == nil {
			ref = err
			return
		}
		if err.Error() != ref.Error() {
			t.Fatalf("procs=%d: error %q, want %q", procs, err, ref)
		}
	})
}

// TestDecideErrorAppliesNothing checks the merge's two-pass contract: a
// failing iteration must not commit any per-center result, exactly like
// the sequential loop that stopped at its first error.
func TestDecideErrorAppliesNothing(t *testing.T) {
	g := graph.FromEdges(nil, [][2]graph.ID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{0, 4}, {1, 4}, {2, 4}, {3, 4},
	})
	out, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3, Radius: 10})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("outcome must be nil on error, got %+v", out)
	}
	var de *decideError
	if !errors.As(err, &de) {
		// The public error is the wrapped form; the internal carrier
		// must not leak.
		_ = de
	} else {
		t.Fatalf("decideError leaked unwrapped: %v", err)
	}
}

// TestDecideKernelRaceStress drives the parallel kernel at GOMAXPROCS
// shards on a workload with several iterations; under `make race` this
// is the dedicated stress entry for the shared cache, the shared G_i
// ball, and the per-shard result slots.
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

// wholeBallAnchoredDiameter is the reference walkedDiameter replaces:
// a BFS over the whole ball from every member of the walk's extreme
// cliques, maximized over the walked members it reaches. It reads only
// the walk (sc.walked, the forest rows, the ball), never the kernel's
// epoch marks.
func wholeBallAnchoredDiameter(sc *decideScratch) int {
	inWalk := make(map[int32]bool, len(sc.walked))
	for _, ci := range sc.walked {
		inWalk[ci] = true
	}
	rowsOf := func(ci int32) []int32 {
		var rows []int32
		for _, uIdx := range sc.cache.memberIdx[sc.cliqueIDs[ci]] {
			if r := sc.ball.RowOf(uIdx); r >= 0 {
				rows = append(rows, r)
			}
		}
		return rows
	}
	var members []int32
	for _, ci := range sc.walked {
		members = append(members, rowsOf(ci)...)
	}
	best := 0
	for _, ci := range sc.walked {
		inside := 0
		for _, nb := range sc.adjRows[ci] {
			if inWalk[nb] {
				inside++
			}
		}
		if inside > 1 {
			continue
		}
		for _, src := range rowsOf(ci) {
			dist := make([]int, sc.ball.NumRows())
			for i := range dist {
				dist[i] = -1
			}
			dist[src] = 0
			queue := []int32{src}
			for h := 0; h < len(queue); h++ {
				for _, u := range sc.ball.Row(queue[h]) {
					if dist[u] < 0 {
						dist[u] = dist[queue[h]] + 1
						queue = append(queue, u)
					}
				}
			}
			for _, r := range members {
				if dist[r] > best {
					best = dist[r]
				}
			}
		}
	}
	return best
}

// TestAnchoredDiameterMatchesWholeBall pins the member-restricted
// anchored diameter to the whole-ball BFS it replaced, on every decide
// the pruning phase makes over each generator family, fault-free and
// under a lossy, duplicating, delaying schedule (whose truncated balls
// stress the clipped-view path; the prune may fail afterwards, but every
// diameter it measured must still match).
func TestAnchoredDiameterMatchesWholeBall(t *testing.T) {
	hub, _ := gen.RelabelRandom(gen.HubTree(3, 12), 4)
	families := map[string]*graph.Graph{
		"chordal":     gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 3),
		"interval":    gen.RandomInterval(120, 60, 2.5, 5),
		"tree":        gen.Tree(150, 7),
		"path":        gen.Path(120),
		"ktree":       gen.KTree(120, 3, 9),
		"subtree":     gen.RandomChordalSubtree(150, 3, 6, 11),
		"hubtree":     hub,
		"caterpillar": gen.Caterpillar(60, 2),
	}
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
			t.Errorf("anchored diameter %d, whole-ball BFS says %d", d, want)
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
