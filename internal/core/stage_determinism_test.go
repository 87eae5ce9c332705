package core

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// absorbablePlan is an E20-style fault schedule the pipelines must
// absorb byte-identically: duplication and delay perturb the message
// schedule without corrupting it.
func absorbablePlan(t testing.TB) *dist.Faults {
	return mustFaults(t, "dup=0.3,delay=2", 21)
}

// TestColoringPipelineDeterministicAcrossStageWorkers runs the full
// distributed coloring pipeline — peeling, per-path coloring, correction
// choreography — at GOMAXPROCS 1, 2 and 4, fault-free and under an
// absorbable fault plan, and requires byte-identical colorings: same
// layers, same provisional and final colors, same round counts.
func TestColoringPipelineDeterministicAcrossStageWorkers(t *testing.T) {
	g := gen.RandomChordal(220, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 33)
	for _, f := range []*dist.Faults{nil, absorbablePlan(t)} {
		var ref *ChordalColoring
		proctest.Sweep(func(procs int) {
			col, err := ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
			if err != nil {
				t.Fatalf("faults=%v procs=%d: %v", f != nil, procs, err)
			}
			if ref == nil {
				ref = col
				return
			}
			if col.Rounds != ref.Rounds || col.ColorsUsed != ref.ColorsUsed ||
				col.Layers != ref.Layers || col.Omega != ref.Omega {
				t.Fatalf("faults=%v procs=%d: (rounds=%d colors=%d layers=%d omega=%d), want (%d,%d,%d,%d)",
					f != nil, procs, col.Rounds, col.ColorsUsed, col.Layers, col.Omega,
					ref.Rounds, ref.ColorsUsed, ref.Layers, ref.Omega)
			}
			if !reflect.DeepEqual(col.Colors, ref.Colors) {
				t.Fatalf("faults=%v procs=%d: final colors differ from procs=1", f != nil, procs)
			}
			if !reflect.DeepEqual(col.Provisional, ref.Provisional) {
				t.Fatalf("faults=%v procs=%d: provisional colors differ from procs=1", f != nil, procs)
			}
		})
	}
}

// TestMISPipelineDeterministicAcrossStageWorkers is the MIS counterpart:
// the distributed Algorithm 6 pipeline must return the identical
// independent set (membership, not just size) at GOMAXPROCS 1, 2 and 4,
// fault-free and under the absorbable plan.
func TestMISPipelineDeterministicAcrossStageWorkers(t *testing.T) {
	g := gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 35)
	for _, f := range []*dist.Faults{nil, absorbablePlan(t)} {
		var ref *ChordalMISResult
		proctest.Sweep(func(procs int) {
			res, err := MISChordalDistributedFaultyPart(g, 0.5, nil, nil, f, nil)
			if err != nil {
				t.Fatalf("faults=%v procs=%d: %v", f != nil, procs, err)
			}
			if ref == nil {
				ref = res
				return
			}
			if res.Rounds != ref.Rounds || res.Iterations != ref.Iterations ||
				res.ExactComponents != ref.ExactComponents || res.ApproxComponents != ref.ApproxComponents {
				t.Fatalf("faults=%v procs=%d: (rounds=%d iters=%d exact=%d approx=%d), want (%d,%d,%d,%d)",
					f != nil, procs, res.Rounds, res.Iterations, res.ExactComponents, res.ApproxComponents,
					ref.Rounds, ref.Iterations, ref.ExactComponents, ref.ApproxComponents)
			}
			if !reflect.DeepEqual(res.Set, ref.Set) {
				t.Fatalf("faults=%v procs=%d: MIS membership differs from procs=1", f != nil, procs)
			}
		})
	}
}

// TestCorrectionPhaseDeterministicAcrossStageWorkers isolates the
// correction choreography: its shared-slab setup (child groups, gate
// sets) is built by a sharded kernel, and the measured asynchronous
// schedule must not depend on GOMAXPROCS — with or without the
// absorbable fault plan.
func TestCorrectionPhaseDeterministicAcrossStageWorkers(t *testing.T) {
	g := gen.RandomChordal(180, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 37)
	out, err := DistributedPrune(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*dist.Faults{nil, absorbablePlan(t)} {
		refRounds := -1
		proctest.Sweep(func(procs int) {
			rounds, err := RunCorrectionPhase(out, 3, dist.RunOpts{Faults: f})
			if err != nil {
				t.Fatalf("faults=%v procs=%d: %v", f != nil, procs, err)
			}
			if refRounds < 0 {
				refRounds = rounds
				return
			}
			if rounds != refRounds {
				t.Fatalf("faults=%v procs=%d: %d correction rounds, want %d", f != nil, procs, rounds, refRounds)
			}
		})
	}
}

// TestStagePipelinesRaceStress drives the full pipelines, distributed
// and centralized, at GOMAXPROCS 4 on a larger graph; under -race this
// is the data-race gate for the sharded stage code paths (peeling
// measurement, per-path coloring, the correct-paths kernel, correction
// setup, MIS components).
func TestStagePipelinesRaceStress(t *testing.T) {
	g := gen.RandomChordal(400, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.5}, 39)
	proctest.With(4, func() {
		for _, color := range []func(*graph.Graph, float64) (*ChordalColoring, error){ColorChordalDistributed, ColorChordal} {
			col, err := color(g, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if col.ColorsUsed > col.Palette {
				t.Fatalf("coloring uses %d colors, palette %d", col.ColorsUsed, col.Palette)
			}
		}
		for _, mis := range []func(*graph.Graph, float64) (*ChordalMISResult, error){MISChordalDistributed, MISChordal} {
			res, err := mis(g, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Set) == 0 {
				t.Fatal("empty MIS")
			}
			seen := make(map[graph.ID]bool, len(res.Set))
			for _, v := range res.Set {
				seen[v] = true
			}
			for _, v := range res.Set {
				for _, u := range g.Neighbors(v) {
					if seen[u] {
						t.Fatalf("MIS contains adjacent pair %d-%d", v, u)
					}
				}
			}
		}
	})
}
