package wire

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestClusterColoringMatchesLocal is the end-to-end cross-check over
// real OS processes: the full distributed coloring pipeline — pruning
// floods, Lemma-12 cross-check, coloring, correction choreography — on
// a 2-process cluster must be byte-identical to the LOCAL run, fault
// free and under an absorbed dup/delay schedule. The shard hosts run
// the "correction" program registered by internal/core's init (this
// test binary re-executes itself, see TestMain), proving the program
// registry works across the process boundary.
func TestClusterColoringMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cl, err := StartCluster(2, SelfSpawn())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 13)
	ix := graph.NewIndexed(g)
	for _, spec := range []string{"", "dup=0.25,delay=2"} {
		at := fmt.Sprintf("%q", spec)
		var lf, pf *dist.Faults
		if spec != "" {
			if lf, err = dist.ParseFaults(spec, 29); err != nil {
				t.Fatal(err)
			}
			if pf, err = dist.ParseFaults(spec, 29); err != nil {
				t.Fatal(err)
			}
		}
		want, err := core.ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, lf, nil)
		if err != nil {
			t.Fatalf("%s: local: %v", at, err)
		}
		part, err := cl.Partition(ix)
		if err != nil {
			t.Fatalf("%s: partition: %v", at, err)
		}
		got, err := core.ColorChordalDistributedFaultyPart(g, 0.5, nil, nil, pf, part)
		if err != nil {
			t.Fatalf("%s: cluster: %v", at, err)
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
	}
}

// TestClusterMISMatchesLocal: same end-to-end process cross-check for
// the MIS pipeline.
func TestClusterMISMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cl, err := StartCluster(2, SelfSpawn())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 47)
	want, err := core.MISChordalDistributedFaultyPart(g, 0.5, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := cl.Partition(graph.NewIndexed(g))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.MISChordalDistributedFaultyPart(g, 0.5, nil, nil, nil, part)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Set.Equal(want.Set) {
		t.Fatalf("MIS diverges: %v vs %v", got.Set, want.Set)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("%d rounds, want %d", got.Rounds, want.Rounds)
	}
}
