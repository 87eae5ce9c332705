package core

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/figures"
	"repro/internal/gen"
)

// mustFaults builds the schedule of (spec, seed), failing the test on a
// parse error.
func mustFaults(t testing.TB, spec string, seed uint64) *dist.Faults {
	t.Helper()
	f, err := dist.ParseFaults(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestColorChordalAbsorbsDupAndDelay: the round-synchronous model must
// absorb duplication and delay — the full distributed coloring pipeline
// (pruning floods + correction choreography) produces a byte-identical
// coloring under them.
func TestColorChordalAbsorbsDupAndDelay(t *testing.T) {
	g := figures.Fig1()
	want, err := ColorChordalDistributed(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := mustFaults(t, "dup=0.3,delay=2", 21)
	got, err := ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ColorsUsed != want.ColorsUsed {
		t.Fatalf("dup/delay changed the palette: %d colors vs %d", got.ColorsUsed, want.ColorsUsed)
	}
	for v, c := range want.Colors {
		if got.Colors[v] != c {
			t.Errorf("node %d: color %d under dup/delay, want %d", v, got.Colors[v], c)
		}
	}
	if got.Rounds != want.Rounds {
		t.Errorf("dup/delay changed the round count: %d vs %d", got.Rounds, want.Rounds)
	}
}

// TestColorChordalDropDiverges: without retransmission, dropped messages
// corrupt the pruning floods, and the built-in Lemma-12 cross-check (or
// the prune's own termination guard) must turn that into a clean error —
// never a silently wrong coloring.
func TestColorChordalDropDiverges(t *testing.T) {
	g := figures.Fig1()
	f := mustFaults(t, "drop=0.3", 2)
	col, err := ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
	if err == nil {
		// An undetected-corruption escape would return a coloring built
		// from truncated balls; the contract is a diagnosable error.
		t.Fatalf("30%% drop produced no error (got %d colors)", col.ColorsUsed)
	}
	t.Logf("drop diagnosis: %v", err)
}

// TestColorChordalCrashErrors: a crash schedule must fail the run with
// an error naming the node, not hang or time out.
func TestColorChordalCrashErrors(t *testing.T) {
	g := figures.Fig1()
	f := mustFaults(t, "crash=7@2", 0)
	_, err := ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
	if err == nil {
		t.Fatal("crash of node 7 produced no error")
	}
	if !strings.Contains(err.Error(), "node 7 crashed") {
		t.Errorf("error %q does not name the crashed node", err)
	}
}

// TestMISChordalAbsorbsDupAndDelay: same absorption guarantee for the
// MIS pipeline.
func TestMISChordalAbsorbsDupAndDelay(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 47)
	want, err := MISChordalDistributed(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := mustFaults(t, "dup=0.25,delay=3", 33)
	got, err := MISChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Set.Equal(want.Set) {
		t.Fatalf("dup/delay changed the MIS: %v vs %v", got.Set, want.Set)
	}
}

// TestMISChordalDropDiverges: drop corruption of the pruning floods is
// diagnosable in the MIS pipeline too. There is no correction phase to
// stall here, so the detection relies on the decide kernel reading a
// drop-truncated ball as the clipped view it is: the affected nodes
// decide from their partial view, which either diverges from the
// centralized peel or peels nothing and trips the prune's progress
// guard.
func TestMISChordalDropDiverges(t *testing.T) {
	g := gen.KTree(60, 1, 47)
	f := mustFaults(t, "drop=0.5", 8)
	res, err := MISChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
	if err == nil {
		t.Fatalf("50%% drop produced no error (got MIS of %d)", len(res.Set))
	}
	t.Logf("drop diagnosis: %v", err)
}

// TestCorrectionPhaseAbsorbsDup: the correction choreography dedups
// every message kind (seenFinal/seenSet), so duplication alone must not
// change the measured schedule length or the choreography's success.
func TestCorrectionPhaseAbsorbsDup(t *testing.T) {
	g := figures.Fig1()
	outcome, err := DistributedPrune(g, EffectiveK(0.5))
	if err != nil {
		t.Fatal(err)
	}
	cleanRounds, err := RunCorrectionPhase(outcome, EffectiveK(0.5), dist.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f := mustFaults(t, "dup=0.4", 14)
	faultRounds, err := RunCorrectionPhase(outcome, EffectiveK(0.5), dist.RunOpts{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if faultRounds != cleanRounds {
		t.Errorf("dup changed the correction schedule length: %d vs %d", faultRounds, cleanRounds)
	}
}
