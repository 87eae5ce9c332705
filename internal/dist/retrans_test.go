package dist

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// sameKnowledge requires two ball collections to hold the same member
// sets, node by node.
func sameKnowledge(t *testing.T, name string, want, got map[graph.ID]*Knowledge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d knowledges, want %d", name, len(got), len(want))
	}
	for v, wk := range want {
		gk := got[v]
		if gk == nil {
			t.Fatalf("%s: node %d missing", name, v)
		}
		if wm, gm := wk.AppendMembers(nil), gk.AppendMembers(nil); !slices.Equal(wm, gm) {
			t.Fatalf("%s node %d: members %v, want %v", name, v, gm, wm)
		}
	}
}

// retransIDs runs the retransmitting flood on g and keys the knowledge
// by node ID.
func retransIDs(g *graph.Graph, radius, budget int, opts RunOpts) (map[graph.ID]*Knowledge, *Result, error) {
	ix := graph.NewIndexed(g)
	ks, res, err := FloodRetrans(ix, radius, budget, opts)
	if err != nil {
		return nil, nil, err
	}
	return byID(ix, ks), res, nil
}

// TestRetransMatchesFloodFaultFree: with no faults, the retransmitting
// flood gathers exactly the knowledge the plain flood does, paying the
// ack round-trip (radius + 2 rounds) for the delivery guarantee.
func TestRetransMatchesFloodFaultFree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal": gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 19),
		"path":    gen.Path(20),
		"star":    gen.Star(15),
	}
	for name, g := range graphs {
		for _, radius := range []int{0, 1, 3} {
			want, _, err := floodIDs(g, radius, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			got, res, err := retransIDs(g, radius, 4*radius+10, RunOpts{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, radius, err)
			}
			sameKnowledge(t, name, want, got)
			if radius > 0 && res.Rounds > radius+2 {
				t.Errorf("%s r=%d: fault-free retransmission took %d rounds, want ≤ %d", name, radius, res.Rounds, radius+2)
			}
		}
	}
}

// TestRetransSurvivesDrops is the graceful-degradation guarantee: under
// heavy message loss the retransmitting flood still converges to the
// exact fault-free knowledge, spending extra rounds.
func TestRetransSurvivesDrops(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 23)
	radius := 3
	want, _, err := floodIDs(g, radius, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.3, 0.5} {
		f := mustParseFaults(t, fmt.Sprintf("drop=%g", p), 41)
		got, res, err := retransIDs(g, radius, 200, RunOpts{Faults: f})
		if err != nil {
			t.Fatalf("drop=%.1f: %v", p, err)
		}
		if res.Dropped == 0 {
			t.Fatalf("drop=%.1f dropped nothing", p)
		}
		sameKnowledge(t, "drops", want, got)
		if res.Rounds <= radius {
			t.Errorf("drop=%.1f: converged in %d rounds, implausibly fast", p, res.Rounds)
		}
	}
}

// TestRetransAbsorbsDupAndDelay: duplication and delay must not change
// the converged knowledge either.
func TestRetransAbsorbsDupAndDelay(t *testing.T) {
	g := gen.KTree(100, 3, 29)
	radius := 2
	want, _, err := floodIDs(g, radius, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f := mustParseFaults(t, "drop=0.2,dup=0.3,delay=2", 5)
	got, res, err := retransIDs(g, radius, 200, RunOpts{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	sameKnowledge(t, "dup+delay", want, got)
	if res.Duplicated == 0 || res.Stall == 0 {
		t.Errorf("expected dup and stall activity: %+v", res)
	}
}

// TestRetransDeterministicAcrossModes: the faulty retransmitting run is
// as independent of the GOMAXPROCS setting as everything else.
func TestRetransDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 31)
	f := mustParseFaults(t, "drop=0.25", 13)
	type fp struct {
		rounds, messages, volume, dropped int
	}
	run := func() (map[graph.ID]*Knowledge, fp) {
		know, res, err := retransIDs(g, 3, 200, RunOpts{Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		return know, fp{res.Rounds, res.Messages, res.Volume, res.Dropped}
	}
	var refK map[graph.ID]*Knowledge
	var refFP fp
	proctest.Sweep(func(procs int) {
		gotK, gotFP := run()
		if procs == 1 {
			refK, refFP = gotK, gotFP
			return
		}
		if gotFP != refFP {
			t.Fatalf("procs %d: %+v, want %+v", procs, gotFP, refFP)
		}
		sameKnowledge(t, "procs", refK, gotK)
	})
}

// TestRetransBestHopsUnderDrops pins the retransmitting flood's
// distances, which its Knowledge no longer carries: on E21's quick graph
// under drop rates 0.1 and 0.3, every node's accepted records must be
// exactly its radius ball, each at its BFS distance (Bellman-Ford's
// best hop count), so a record never travels past the radius on a
// longer path's count.
func TestRetransBestHopsUnderDrops(t *testing.T) {
	g := gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 29)
	ix := graph.NewIndexed(g)
	const radius, budget = 3, 200
	for _, p := range []float64{0.1, 0.3} {
		nodes := make([]*retransProtocol, ix.NumNodes())
		_, res, err := Run(ix, NodeFunc(func(i int) Protocol {
			nodes[i] = newRetransProtocol(ix.IDOf(i), i, ix, radius)
			return nodes[i]
		}), RunOpts{Faults: mustParseFaults(t, fmt.Sprintf("drop=%g", p), 5)}, budget)
		if err != nil {
			t.Fatalf("drop=%.1f: %v", p, err)
		}
		if res.Dropped == 0 {
			t.Fatalf("drop=%.1f dropped nothing", p)
		}
		for i, np := range nodes {
			v := ix.IDOf(i)
			dist := g.BFSDistances(v)
			for slot, idx := range np.infos {
				if d, ok := dist[ix.IDOf(int(idx))]; !ok || int(np.best[slot]) != d || d > radius {
					t.Fatalf("drop=%.1f node %d: record %d at %d hops, BFS distance %d (reached %v), radius %d",
						p, v, ix.IDOf(int(idx)), np.best[slot], d, ok, radius)
				}
			}
			if want := len(bfsBall(g, ix, v, radius)); len(np.infos) != want {
				t.Fatalf("drop=%.1f node %d: %d records, radius ball holds %d", p, v, len(np.infos), want)
			}
		}
	}
}

// TestRetransBudgetExhaustion: an impossible budget fails with the
// engine's did-not-terminate error rather than returning short balls.
func TestRetransBudgetExhaustion(t *testing.T) {
	g := gen.Path(30)
	f := mustParseFaults(t, "drop=0.5", 1)
	_, _, err := retransIDs(g, 5, 3, RunOpts{Faults: f})
	if err == nil {
		t.Fatal("budget of 3 rounds under 50% drop succeeded")
	}
	if !strings.Contains(err.Error(), "did not terminate") {
		t.Errorf("error %q is not the budget-exhaustion diagnosis", err)
	}
}
