package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/proctest"
)

// TestDistributedPruneDeterministicAcrossModes runs the full pruning
// phase (an E4/E6-style workload) under GOMAXPROCS 1, 2, and 4 — one,
// two, and four concurrently stepped engine ranges — and requires
// bit-for-bit identical outcomes: same layers, parents, rounds, and
// traffic counters.
func TestDistributedPruneDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 9)
	var ref *PruneOutcome
	proctest.Sweep(func(procs int) {
		got, err := DistributedPrune(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			ref = got
			return
		}
		if got.Rounds != ref.Rounds || got.Iterations != ref.Iterations ||
			got.Messages != ref.Messages || got.Volume != ref.Volume {
			t.Fatalf("procs %d: counters (rounds=%d iter=%d msgs=%d vol=%d), want (%d,%d,%d,%d)",
				procs, got.Rounds, got.Iterations, got.Messages, got.Volume,
				ref.Rounds, ref.Iterations, ref.Messages, ref.Volume)
		}
		if !reflect.DeepEqual(got.Layer, ref.Layer) {
			t.Fatalf("procs %d: layer assignment differs from GOMAXPROCS 1", procs)
		}
		if !reflect.DeepEqual(got.Parent, ref.Parent) {
			t.Fatalf("procs %d: parent assignment differs from GOMAXPROCS 1", procs)
		}
	})
}
