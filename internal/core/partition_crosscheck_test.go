package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// This file is the headline cross-check of the partitioned runtime: the
// full coloring and MIS pipelines must produce byte-identical results —
// outputs, round counts, and the deterministic trace fields — whether
// the message-passing phases run on the in-process engine or on a
// partition, fault-free and under dup/delay/drop schedules.

// traceRecorder flattens every deterministic observer event into a
// string stream. Shards (legitimately different between modes) and
// anything wall-clock are exactly what it leaves out — the same fields
// the tracestat diff treats as deterministic.
type traceRecorder struct {
	phase  string
	events []string
}

func (o *traceRecorder) SetPhase(name string)    { o.phase = name }
func (o *traceRecorder) RoundStart(round, _ int) { o.add("round-start %d", round) }
func (o *traceRecorder) ShardStart(shard int)    {}
func (o *traceRecorder) ShardEnd(shard int)      {}
func (o *traceRecorder) RunEnd(rounds int)       { o.add("run-end %d", rounds) }
func (o *traceRecorder) RoundEnd(s dist.RoundStats) {
	o.add("round-end %d n=%d m=%d v=%d done=%d inbox=%d",
		s.Round, s.Nodes, s.Messages, s.Volume, s.Done, s.MaxInbox)
}
func (o *traceRecorder) FaultRound(fs dist.FaultStats) {
	o.add("faults %d drop=%d dup=%d dead=%d stall=%d crashed=%v",
		fs.Round, fs.Dropped, fs.Duplicated, fs.DeadLetters, fs.Stall, fs.Crashed)
}
func (o *traceRecorder) add(format string, args ...any) {
	o.events = append(o.events, o.phase+": "+fmt.Sprintf(format, args...))
}

func sameTrace(t *testing.T, at string, local, part *traceRecorder) {
	t.Helper()
	for i := 0; i < len(local.events) && i < len(part.events); i++ {
		if local.events[i] != part.events[i] {
			t.Fatalf("%s: trace event %d diverges:\n  local: %s\n  part:  %s",
				at, i, local.events[i], part.events[i])
		}
	}
	if len(local.events) != len(part.events) {
		t.Fatalf("%s: trace lengths diverge: %d local events, %d partitioned",
			at, len(local.events), len(part.events))
	}
}

func parseFaultsPair(t *testing.T, spec string, seed uint64) (*dist.Faults, *dist.Faults) {
	t.Helper()
	if spec == "" {
		return nil, nil
	}
	lf, err := dist.ParseFaults(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := dist.ParseFaults(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return lf, pf
}

// TestPartitionedColoringMatchesLocal: the full distributed coloring —
// pruning floods, Lemma-12 cross-check, coloring, correction
// choreography — is byte-identical between LOCAL and 2- or 4-shard
// partitioned execution, fault-free and under absorbed fault schedules.
func TestPartitionedColoringMatchesLocal(t *testing.T) {
	g := gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 13)
	ix := graph.NewIndexed(g)
	for _, spec := range []string{"", "dup=0.25,delay=2", "dup=0.1,delay=1"} {
		for _, parts := range []int{2, 4} {
			at := fmt.Sprintf("%q/parts=%d", spec, parts)
			lf, pf := parseFaultsPair(t, spec, 29)
			lObs, pObs := &traceRecorder{}, &traceRecorder{}
			want, err := ColorChordalDistributedFaultyPart(g, 0.5, lObs, nil, lf, nil)
			if err != nil {
				t.Fatalf("%s: local: %v", at, err)
			}
			got, err := ColorChordalDistributedFaultyPart(g, 0.5, pObs, nil, pf, dist.NewLocalPartition(ix, parts))
			if err != nil {
				t.Fatalf("%s: partitioned: %v", at, err)
			}
			if got.ColorsUsed != want.ColorsUsed || got.Rounds != want.Rounds {
				t.Fatalf("%s: (colors %d, rounds %d), want (%d, %d)",
					at, got.ColorsUsed, got.Rounds, want.ColorsUsed, want.Rounds)
			}
			for v, c := range want.Colors {
				if got.Colors[v] != c {
					t.Fatalf("%s: node %d colored %d, want %d", at, v, got.Colors[v], c)
				}
			}
			for v, c := range want.Provisional {
				if got.Provisional[v] != c {
					t.Fatalf("%s: node %d provisional %d, want %d", at, v, got.Provisional[v], c)
				}
			}
			sameTrace(t, at, lObs, pObs)
		}
	}
}

// TestPartitionedEmptyGraphMatchesLocal: on the empty graph a 2-shard
// partition is one empty range, [0, 0), as SplitRange gives it. Flood,
// both pipelines and the correction phase must run on it and give the
// LOCAL results and trace.
func TestPartitionedEmptyGraphMatchesLocal(t *testing.T) {
	g := graph.New()
	ix := graph.NewIndexed(g)
	lObs, pObs := &traceRecorder{}, &traceRecorder{}
	part := func() *dist.Partition { return dist.NewLocalPartition(ix, 2) }
	wantBalls, wantRes, err := dist.Flood(ix, 3, dist.RunOpts{Observer: lObs})
	if err != nil {
		t.Fatalf("local flood: %v", err)
	}
	gotBalls, gotRes, err := dist.Flood(ix, 3, dist.RunOpts{Observer: pObs, Part: part()})
	if err != nil {
		t.Fatalf("partitioned flood: %v", err)
	}
	if len(gotBalls) != len(wantBalls) || *gotRes != *wantRes {
		t.Fatalf("flood: %d balls, %+v; want %d, %+v", len(gotBalls), *gotRes, len(wantBalls), *wantRes)
	}
	wantCol, err := ColorChordalDistributedFaultyPart(g, 0.5, lObs, nil, nil, nil)
	if err != nil {
		t.Fatalf("local coloring: %v", err)
	}
	gotCol, err := ColorChordalDistributedFaultyPart(g, 0.5, pObs, nil, nil, part())
	if err != nil {
		t.Fatalf("partitioned coloring: %v", err)
	}
	if len(gotCol.Colors) != 0 || gotCol.ColorsUsed != wantCol.ColorsUsed || gotCol.Rounds != wantCol.Rounds {
		t.Fatalf("coloring: %d colors, %d used, %d rounds; want none, %d, %d",
			len(gotCol.Colors), gotCol.ColorsUsed, gotCol.Rounds, wantCol.ColorsUsed, wantCol.Rounds)
	}
	wantMIS, err := MISChordalDistributedFaultyPart(g, 0.5, lObs, nil, nil, nil)
	if err != nil {
		t.Fatalf("local MIS: %v", err)
	}
	gotMIS, err := MISChordalDistributedFaultyPart(g, 0.5, pObs, nil, nil, part())
	if err != nil {
		t.Fatalf("partitioned MIS: %v", err)
	}
	if len(gotMIS.Set) != 0 || gotMIS.Rounds != wantMIS.Rounds || gotMIS.Iterations != wantMIS.Iterations {
		t.Fatalf("MIS: %d nodes, %d rounds, %d iterations; want none, %d, %d",
			len(gotMIS.Set), gotMIS.Rounds, gotMIS.Iterations, wantMIS.Rounds, wantMIS.Iterations)
	}
	outcome := &PruneOutcome{Snapshot: ix}
	want, err := RunCorrectionPhase(outcome, 3, dist.RunOpts{Observer: lObs})
	if err != nil {
		t.Fatalf("local correction: %v", err)
	}
	got, err := RunCorrectionPhase(outcome, 3, dist.RunOpts{Observer: pObs, Part: part()})
	if err != nil {
		t.Fatalf("partitioned correction: %v", err)
	}
	if got != want {
		t.Fatalf("correction: %d rounds, want %d", got, want)
	}
	sameTrace(t, "empty graph", lObs, pObs)
}

// TestPartitionedColoringDropDivergesIdentically: a drop schedule that
// corrupts the pruning floods must produce one diagnosis — same
// deterministic schedule, same truncated balls, same error string — on
// every LOCAL run and on a partition, for both pipelines. The checks
// walk nodes in index order, so when several nodes are wrong the error
// names the lowest index, never whichever node a map range reached
// first.
func TestPartitionedColoringDropDivergesIdentically(t *testing.T) {
	chordal := func(seed int64) *graph.Graph {
		return gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		spec string
		seed uint64
		mis  bool
		want string // a substring of the diagnosis
	}{
		{"ktree", gen.KTree(60, 1, 47), "drop=0.5", 8, false, ""},
		{"lemma12", chordal(1), "drop=0.02", 1, false, "Lemma 12 violation"},
		{"no-parent", chordal(2), "drop=0.02", 2, false, "recolored without a parent"},
		{"mis", chordal(1), "drop=0.05", 1, true, "Lemma 12 violation"},
	}
	for _, tc := range cases {
		run := func(part *dist.Partition) string {
			f, err := dist.ParseFaults(tc.spec, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mis {
				_, err = MISChordalDistributedFaultyPart(tc.g, 0.5, nil, nil, f, part)
			} else {
				_, err = ColorChordalDistributedFaultyPart(tc.g, 0.5, nil, nil, f, part)
			}
			if err == nil {
				t.Fatalf("%s: %s produced no error", tc.name, tc.spec)
			}
			return err.Error()
		}
		want := run(nil)
		if !strings.Contains(want, tc.want) {
			t.Fatalf("%s: diagnosis %q does not contain %q", tc.name, want, tc.want)
		}
		for r := 1; r < 8; r++ {
			if got := run(nil); got != want {
				t.Fatalf("%s: LOCAL diagnoses diverge:\n  run 0: %s\n  run %d: %s", tc.name, want, r, got)
			}
		}
		if got := run(dist.NewLocalPartition(graph.NewIndexed(tc.g), 3)); got != want {
			t.Fatalf("%s: drop diagnoses diverge:\n  local: %s\n  part:  %s", tc.name, want, got)
		}
	}
}

// TestPartitionedMISMatchesLocal: same cross-check for the MIS pipeline.
func TestPartitionedMISMatchesLocal(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 47)
	ix := graph.NewIndexed(g)
	for _, spec := range []string{"", "dup=0.25,delay=3"} {
		for _, parts := range []int{2, 4} {
			at := fmt.Sprintf("%q/parts=%d", spec, parts)
			lf, pf := parseFaultsPair(t, spec, 33)
			lObs, pObs := &traceRecorder{}, &traceRecorder{}
			want, err := MISChordalDistributedFaultyPart(g, 0.5, lObs, nil, lf, nil)
			if err != nil {
				t.Fatalf("%s: local: %v", at, err)
			}
			got, err := MISChordalDistributedFaultyPart(g, 0.5, pObs, nil, pf, dist.NewLocalPartition(ix, parts))
			if err != nil {
				t.Fatalf("%s: partitioned: %v", at, err)
			}
			if !got.Set.Equal(want.Set) {
				t.Fatalf("%s: MIS diverges: %v vs %v", at, got.Set, want.Set)
			}
			if got.Rounds != want.Rounds || got.Iterations != want.Iterations {
				t.Fatalf("%s: (rounds %d, iters %d), want (%d, %d)",
					at, got.Rounds, got.Iterations, want.Rounds, want.Iterations)
			}
			sameTrace(t, at, lObs, pObs)
		}
	}
}

// TestPartitionedCorrectionMatchesLocal exercises the correction
// choreography's shipped program directly: precomputed group state,
// value payload codecs, and the bool outputs must reproduce the LOCAL
// schedule exactly, including under duplication.
func TestPartitionedCorrectionMatchesLocal(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 31)
	k := EffectiveK(0.5)
	outcome, err := DistributedPrune(g, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "dup=0.4", "dup=0.2,delay=2"} {
		for _, parts := range []int{1, 2, 5} {
			at := fmt.Sprintf("%q/parts=%d", spec, parts)
			lf, pf := parseFaultsPair(t, spec, 14)
			lObs, pObs := &traceRecorder{}, &traceRecorder{}
			want, err := RunCorrectionPhase(outcome, k, dist.RunOpts{Observer: lObs, Faults: lf})
			if err != nil {
				t.Fatalf("%s: local: %v", at, err)
			}
			got, err := RunCorrectionPhase(outcome, k, dist.RunOpts{Observer: pObs, Faults: pf, Part: dist.NewLocalPartition(outcome.Snapshot, parts)})
			if err != nil {
				t.Fatalf("%s: partitioned: %v", at, err)
			}
			if got != want {
				t.Fatalf("%s: %d correction rounds, want %d", at, got, want)
			}
			sameTrace(t, at, lObs, pObs)
		}
	}
}
