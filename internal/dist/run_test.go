package dist

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// countingProgram is the flood program with a settable registered name,
// counting the calls a run makes to its Params and DecodeOutput.
type countingProgram struct {
	*floodProgram
	name            string
	params, decodes int
}

func (p *countingProgram) Params() (string, []byte, error) {
	p.params++
	_, params, err := p.floodProgram.Params()
	return p.name, params, err
}

func (p *countingProgram) DecodeOutput(i int, data []byte) (any, error) {
	p.decodes++
	return p.floodProgram.DecodeOutput(i, data)
}

// TestRunCodecBoundary pins where Run crosses the process boundary: a
// LOCAL run never encodes params or decodes outputs; a partitioned run
// asks the caller's program for its params once and decodes every
// node's output with it; and params naming an unregistered program fail
// with the registry's error.
func TestRunCodecBoundary(t *testing.T) {
	ix := graph.NewIndexed(gen.RandomChordal(40, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3))
	const radius = 2
	local := &countingProgram{floodProgram: newFloodProgram(ix, radius), name: "flood"}
	lOuts, lRes, err := Run(ix, local, RunOpts{}, radius+1)
	if err != nil {
		t.Fatal(err)
	}
	if local.params != 0 || local.decodes != 0 {
		t.Fatalf("LOCAL run called Params %d times and DecodeOutput %d times, want 0 and 0", local.params, local.decodes)
	}

	part := &countingProgram{floodProgram: newFloodProgram(ix, radius), name: "flood"}
	pOuts, pRes, err := Run(ix, part, RunOpts{Part: NewLocalPartition(ix, 2)}, radius+1)
	if err != nil {
		t.Fatal(err)
	}
	if part.params != 1 || part.decodes != ix.NumNodes() {
		t.Fatalf("partitioned run called Params %d times and DecodeOutput %d times, want 1 and %d",
			part.params, part.decodes, ix.NumNodes())
	}
	sameResult(t, "part2", lRes, pRes)
	for i := range lOuts {
		samePartKnowledge(t, "part2", ix, lOuts[i].(*Knowledge), pOuts[i].(*Knowledge))
	}

	bad := &countingProgram{floodProgram: newFloodProgram(ix, radius), name: "no-such-program"}
	_, _, err = Run(ix, bad, RunOpts{Part: NewLocalPartition(ix, 2)}, radius+1)
	if err == nil || !strings.Contains(err.Error(), `program "no-such-program" is not registered`) {
		t.Fatalf("unregistered program: %v", err)
	}
}

// TestFloodRejectsNegativeRadius: both floods reject a negative radius
// before any engine or shard starts, on sparse graphs (where the size
// hint of a negative radius is a negative capacity) and dense ones,
// LOCAL and on two shards alike.
func TestFloodRejectsNegativeRadius(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":    gen.Path(6),
		"chordal": gen.RandomChordal(40, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3),
	}
	for name, g := range graphs {
		ix := graph.NewIndexed(g)
		for _, part := range []*Partition{nil, NewLocalPartition(ix, 2)} {
			opts := RunOpts{Part: part}
			if _, _, err := Flood(ix, -1, opts); err == nil || !strings.Contains(err.Error(), "radius -1 is negative") {
				t.Errorf("%s (part %v): Flood at radius -1: %v", name, part != nil, err)
			}
			if _, _, err := FloodRetrans(ix, -1, 20, opts); err == nil || !strings.Contains(err.Error(), "radius -1 is negative") {
				t.Errorf("%s (part %v): FloodRetrans at radius -1: %v", name, part != nil, err)
			}
		}
	}
}
