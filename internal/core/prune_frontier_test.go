package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/peel"
	"repro/internal/verify"
)

// barbell builds two forced degree-3 hubs joined by a chain of the given
// length (same construction as the peel tests): the chain is an internal
// path of the clique forest whose length can far exceed the 10k knowledge
// horizon.
func barbell(chainLen int) *graph.Graph {
	g := graph.New()
	for _, e := range [][2]graph.ID{
		{1, 2}, {2, 3}, {1, 3},
		{1, 7}, {2, 7}, {2, 8}, {3, 8}, {1, 9}, {3, 9},
	} {
		g.AddEdge(e[0], e[1])
	}
	last := graph.ID(9)
	next := graph.ID(10)
	for i := 0; i < chainLen; i++ {
		g.AddEdge(last, next)
		last = next
		next++
	}
	// Right hub K2 = {next, next+1, next+2} joined via a weight-2 clique.
	a, b, c := next, next+1, next+2
	g.AddEdge(last, a)
	g.AddEdge(last, b)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(a, c)
	g.AddEdge(b, c+1)
	g.AddEdge(c, c+1)
	g.AddEdge(a, c+2)
	g.AddEdge(c, c+2)
	return g
}

// sameLayers fails the test unless the distributed prune decided
// exactly the nodes the centralized peel layered, each in its
// centralized layer. It maps the peel's paths through node IDs into the
// outcome's snapshot, so it checks Lemma 12 independently of
// checkLemma12.
func sameLayers(t *testing.T, at string, out *PruneOutcome, peeled *peel.Result) {
	t.Helper()
	layered := 0
	for _, layer := range peeled.Layers {
		for _, rec := range layer.Paths {
			for _, v := range peeled.Snapshot.IDSet(rec.Nodes) {
				i, _ := out.Snapshot.IndexOf(v)
				if int(out.Layer[i]) != layer.Index {
					t.Fatalf("%snode %d: distributed layer %d, centralized %d", at, v, out.Layer[i], layer.Index)
				}
				layered++
			}
		}
	}
	decided := 0
	for _, l := range out.Layer {
		if l != 0 {
			decided++
		}
	}
	if decided != layered {
		t.Fatalf("%sdistributed prune decided %d nodes, centralized peel layered %d", at, decided, layered)
	}
}

// TestDistributedPruneBeyondHorizon exercises the frontier case: with
// k=3 the knowledge radius is 30, far less than the 200-clique internal
// chain, so mid-chain nodes must peel themselves via the
// "binary path reaches my horizon ⇒ diameter ≥ 3k" rule, while hub-area
// nodes must wait for a later iteration. The partition must still match
// the centralized algorithm exactly (Lemma 12).
func TestDistributedPruneBeyondHorizon(t *testing.T) {
	g := barbell(200)
	const k = 3
	out, err := DistributedPrune(g, k)
	if err != nil {
		t.Fatal(err)
	}
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k})
	if err != nil {
		t.Fatal(err)
	}
	sameLayers(t, "", out, peeled)
	if out.Iterations < 2 {
		t.Fatalf("expected at least 2 iterations, got %d", out.Iterations)
	}
	// Mid-chain nodes (far from both hubs) must be layer 1.
	if mid, _ := out.Snapshot.IndexOf(100); out.Layer[mid] != 1 {
		t.Fatalf("mid-chain node in layer %d, want 1", out.Layer[mid])
	}
}

// TestColorChordalDistributedBeyondHorizon runs the whole distributed
// pipeline on the barbell, checking legality and the palette bound.
func TestColorChordalDistributedBeyondHorizon(t *testing.T) {
	g := barbell(150)
	cc, err := ColorChordalDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	used, err := verify.Coloring(g, cc.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if used > cc.Palette {
		t.Fatalf("used %d > palette %d", used, cc.Palette)
	}
}

// TestDistributedPruneSpiderKValues checks the local decision across k on
// a spider (many pendant arms of varying length).
func TestDistributedPruneSpiderKValues(t *testing.T) {
	g := graph.New()
	next := graph.ID(1)
	for arm := 0; arm < 6; arm++ {
		last := graph.ID(0)
		for i := 0; i <= arm*7; i++ {
			g.AddEdge(last, next)
			last = next
			next++
		}
	}
	for _, k := range []int{3, 5} {
		out, err := DistributedPrune(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k})
		if err != nil {
			t.Fatal(err)
		}
		sameLayers(t, fmt.Sprintf("k=%d ", k), out, peeled)
	}
}

// TestDistributedPruneDisconnected checks per-component behaviour.
func TestDistributedPruneDisconnected(t *testing.T) {
	g := gen.Path(30)
	h := gen.RandomChordal(40, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 5)
	for _, e := range h.Edges() {
		g.AddEdge(e[0]+1000, e[1]+1000)
	}
	out, err := DistributedPrune(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 9})
	if err != nil {
		t.Fatal(err)
	}
	sameLayers(t, "", out, peeled)
}

// TestCorrectionPhaseOnHubTree drives the correction choreography through
// several layers: pendant-only style depth in the hub tree means parents
// must cascade SetColor messages layer by layer.
func TestCorrectionPhaseOnHubTree(t *testing.T) {
	g := gen.HubTree(3, 12)
	cc, err := ColorChordalDistributed(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Coloring(g, cc.Colors); err != nil {
		t.Fatal(err)
	}
	if cc.Layers < 2 {
		t.Fatalf("expected multi-layer peel, got %d", cc.Layers)
	}
	if cc.Rounds <= 0 {
		t.Fatal("no rounds")
	}
	// Some nodes must actually have been recolored by their parents.
	recolored := 0
	for v, final := range cc.Colors {
		if final != cc.Provisional[v] {
			recolored++
		}
	}
	t.Logf("layers=%d rounds=%d recolored=%d/%d", cc.Layers, cc.Rounds, recolored, g.NumNodes())
}

// TestCorrectionPhaseDirect exercises RunCorrectionPhase standalone.
func TestCorrectionPhaseDirect(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 41)
	k := 3
	outcome, err := DistributedPrune(g, k)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := RunCorrectionPhase(outcome, k, dist.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 0 {
		t.Fatal("negative rounds")
	}
}

// TestCorrectionPhaseRejectsMalformedOutcome: parents the choreography
// could never serve — one outside the snapshot, or two nodes naming
// each other — are rejected before any round runs, with an error that
// names the lowest-index offender, instead of stalling until the round
// cap.
func TestCorrectionPhaseRejectsMalformedOutcome(t *testing.T) {
	const n = 500
	ix := graph.NewIndexed(gen.Path(n))
	layered := func() *PruneOutcome {
		out := &PruneOutcome{Snapshot: ix, Layer: make([]int32, n), Parent: make([]int32, n)}
		for i := range out.Layer {
			out.Layer[i], out.Parent[i] = 1, -1
		}
		return out
	}
	outside := layered()
	outside.Parent[5] = n
	cycle := layered()
	cycle.Parent[5], cycle.Parent[6] = 6, 5
	short := layered()
	short.Parent = short.Parent[:n-1]
	cases := []struct {
		name string
		out  *PruneOutcome
		want string
	}{
		{"outside", outside, "node 5 has parent index 500 outside [0, 500)"},
		{"cycle", cycle, "node 5 in layer 1 has parent 6 in layer 1, not above it"},
		{"short", short, "outcome has 500 layers and 499 parents for 500 nodes"},
	}
	for _, tc := range cases {
		c := obs.NewCollector()
		_, err := RunCorrectionPhase(tc.out, 3, dist.RunOpts{Observer: c})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if evs := c.Events(); len(evs) != 0 {
			t.Fatalf("%s: %d observer events before the error, want none", tc.name, len(evs))
		}
	}
}
