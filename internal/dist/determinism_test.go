package dist

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// floodFingerprint captures everything observable about a flood run:
// the engine counters and, per node, the member set (ascending snapshot
// indices) and its regime.
type floodFingerprint struct {
	rounds, messages, volume int
	members                  map[graph.ID][]int32
	dense                    map[graph.ID]bool
}

// fingerprint records a flood run's counters and every node's members.
func fingerprint(res *Result, know map[graph.ID]*Knowledge) floodFingerprint {
	fp := floodFingerprint{
		rounds:   res.Rounds,
		messages: res.Messages,
		volume:   res.Volume,
		members:  make(map[graph.ID][]int32, len(know)),
		dense:    make(map[graph.ID]bool, len(know)),
	}
	for v, k := range know {
		fp.members[v] = k.AppendMembers(nil)
		fp.dense[v] = k.seen != nil
	}
	return fp
}

func floodRun(t *testing.T, g *graph.Graph, radius int) floodFingerprint {
	t.Helper()
	know, res := floodByID(t, g, radius, RunOpts{})
	return fingerprint(res, know)
}

// compareFloodRuns requires equal counters and member sets; the regimes
// are compared only when sameRegime is set.
func compareFloodRuns(t *testing.T, name string, want, got floodFingerprint, sameRegime bool) {
	t.Helper()
	if want.rounds != got.rounds || want.messages != got.messages || want.volume != got.volume {
		t.Fatalf("%s: result mismatch: (rounds,messages,volume) = (%d,%d,%d), want (%d,%d,%d)",
			name, got.rounds, got.messages, got.volume, want.rounds, want.messages, want.volume)
	}
	if len(want.members) != len(got.members) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got.members), len(want.members))
	}
	for v, wm := range want.members {
		if gm := got.members[v]; !slices.Equal(wm, gm) {
			t.Fatalf("%s node %d: members %v, want %v", name, v, gm, wm)
		}
		if sameRegime && want.dense[v] != got.dense[v] {
			t.Fatalf("%s node %d: dense regime %v, want %v", name, v, got.dense[v], want.dense[v])
		}
	}
}

// TestFloodDeterministicAcrossModes checks the central engine guarantee:
// one, two, and four concurrently stepped node ranges (GOMAXPROCS 1, 2,
// 4) produce bit-for-bit identical results — same counters, same
// per-node member sets — on an E4/E6-style chordal workload.
func TestFloodDeterministicAcrossModes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal": gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 11),
		"ktree":   gen.KTree(150, 3, 5),
		"path":    gen.Path(64),
	}
	for name, g := range graphs {
		for _, radius := range []int{1, 3, 6} {
			var ref floodFingerprint
			proctest.Sweep(func(procs int) {
				got := floodRun(t, g, radius)
				if procs == 1 {
					ref = got
					return
				}
				compareFloodRuns(t, fmt.Sprintf("%s/r%d/procs%d", name, radius, procs), ref, got, true)
			})
		}
	}
}

// TestFloodDedupModesAgree checks that the bitmap dedup (small n) and
// the sparse-set dedup (large n) paths produce identical knowledge. The
// n threshold is a compile-time constant, so the large-n path is forced
// by hand: detach the bitmap and seed the sparse index set exactly as
// newFloodProtocol does above seenBitmapMaxN.
func TestFloodDedupModesAgree(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 3)
	ix := graph.NewIndexed(g)
	radius := 4
	run := func(forceMap bool) floodFingerprint {
		outs, res, err := Run(ix, NodeFunc(func(i int) Protocol {
			p := newFloodProtocol(ix.IDOf(i), i, ix, radius, 8)
			if forceMap {
				// Disable the bitmap so dedup falls back to the sparse
				// index set, as it would for n > seenBitmapMaxN.
				p.seen = nil
				p.know.seen = nil
				p.know.known.Add(int32(i))
			}
			return p
		}), RunOpts{}, radius+1)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(res, byID(ix, knowledgeOf(outs)))
		for v, dense := range fp.dense {
			if dense == forceMap {
				t.Fatalf("forceMap %v: node %d knowledge dense %v", forceMap, v, dense)
			}
		}
		return fp
	}
	compareFloodRuns(t, "bitmap-vs-map", run(false), run(true), false)
}

// countingProtocol is a tiny stress protocol: every node broadcasts its
// ID for a fixed number of rounds and sums what it hears. It exists to
// stress the engine's inbox reuse and pooled scheduling under -race with
// a payload cheap enough for many rounds.
type countingProtocol struct {
	rounds, limit int
	sum           int64
}

func (p *countingProtocol) Init(ctx *Context) { ctx.Broadcast(int64(ctx.ID())) }
func (p *countingProtocol) Round(ctx *Context, inbox []Message) {
	if p.rounds >= p.limit {
		return
	}
	p.rounds++
	for _, m := range inbox {
		p.sum += m.Payload.(int64)
	}
	if p.rounds < p.limit {
		ctx.Broadcast(int64(ctx.ID()))
	}
}
func (p *countingProtocol) Done() bool  { return p.rounds >= p.limit }
func (p *countingProtocol) Output() any { return p.sum }

// TestEngineStressAllModes drives the engine over several graphs under
// the GOMAXPROCS sweep, whose last setting (4) steps four ranges
// concurrently on any machine; run with -race this doubles as the
// engine's data-race gate.
func TestEngineStressAllModes(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Cycle(97),
		gen.Star(50),
		gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.6}, 1),
	}
	for gi, g := range graphs {
		var ref map[graph.ID]any
		proctest.Sweep(func(procs int) {
			outs, _, err := runIDs(graph.NewIndexed(g), RunOpts{}, 10, func(v graph.ID) Protocol {
				return &countingProtocol{limit: 8}
			})
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				ref = outs
				return
			}
			for v, want := range ref {
				if outs[v] != want {
					t.Fatalf("graph %d procs %d node %d: output %v, want %v",
						gi, procs, v, outs[v], want)
				}
			}
		})
	}
}
