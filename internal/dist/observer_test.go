package dist

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// nopObserver implements RoundObserver with no-ops, for test observers
// to embed and override only the callbacks they record.
type nopObserver struct{}

func (nopObserver) SetPhase(string)             {}
func (nopObserver) RoundStart(int, int)         {}
func (nopObserver) ShardStart(int)              {}
func (nopObserver) ShardEnd(int)                {}
func (nopObserver) FaultRound(FaultStats)       {}
func (nopObserver) WireRound(int, int64, int64) {}
func (nopObserver) RoundEnd(RoundStats)         {}
func (nopObserver) RunEnd(int)                  {}
func (nopObserver) KernelStart(string, int)     {}
func (nopObserver) KernelShardStart(int)        {}
func (nopObserver) KernelShardEnd(int, int)     {}
func (nopObserver) KernelEnd()                  {}

// recordingObserver captures every engine callback. It is test-local so
// package dist needs no import of internal/obs (which imports dist).
type recordingObserver struct {
	nopObserver
	mu          sync.Mutex
	rounds      []RoundStats
	roundStarts []int
	shardStarts map[int]int // shard index -> count
	shardEnds   map[int]int
	runEnds     []int
	phases      []string
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{shardStarts: make(map[int]int), shardEnds: make(map[int]int)}
}

func (r *recordingObserver) RoundStart(round, shards int) {
	r.roundStarts = append(r.roundStarts, round)
}
func (r *recordingObserver) ShardStart(shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardStarts[shard]++
}
func (r *recordingObserver) ShardEnd(shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardEnds[shard]++
}
func (r *recordingObserver) RoundEnd(stats RoundStats) {
	r.rounds = append(r.rounds, stats)
}
func (r *recordingObserver) RunEnd(rounds int) {
	r.runEnds = append(r.runEnds, rounds)
}
func (r *recordingObserver) SetPhase(name string) {
	r.phases = append(r.phases, name)
}

// scheduleFree strips the schedule-dependent Shards field, leaving only
// the values promised identical for every range count and runtime.
func scheduleFree(stats []RoundStats) []RoundStats {
	out := append([]RoundStats(nil), stats...)
	for i := range out {
		out[i].Shards = 0
	}
	return out
}

// TestObserverDeterministicAcrossModes runs the same protocol under the
// GOMAXPROCS sweep and requires identical event counts and values —
// every RoundStats field except Shards is a pure function of (graph,
// protocol) — plus the schedule shape: one range per GOMAXPROCS, each
// bracketed by matching shard events every step.
func TestObserverDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 9)
	var ref *recordingObserver
	proctest.Sweep(func(procs int) {
		rec := newRecordingObserver()
		if _, _, err := runIDs(graph.NewIndexed(g), RunOpts{Observer: rec}, 10, func(v graph.ID) Protocol {
			return &echoProtocol{target: 4}
		}); err != nil {
			t.Fatal(err)
		}
		if len(rec.runEnds) != 1 {
			t.Fatalf("procs %d: RunEnd fired %d times, want 1", procs, len(rec.runEnds))
		}
		// One RoundStart and one RoundEnd per step (Init = round 0).
		steps := rec.runEnds[0] + 1
		if len(rec.rounds) != steps || len(rec.roundStarts) != steps {
			t.Errorf("procs %d: got %d RoundEnds and %d RoundStarts for %d steps", procs, len(rec.rounds), len(rec.roundStarts), steps)
		}
		for _, st := range rec.rounds {
			if st.Shards != procs {
				t.Errorf("procs %d round %d: shards=%d, want %d", procs, st.Round, st.Shards, procs)
			}
		}
		if len(rec.shardStarts) != procs {
			t.Errorf("procs %d: shard events for %d shards, want %d", procs, len(rec.shardStarts), procs)
		}
		for shard, n := range rec.shardStarts {
			if n != steps || rec.shardEnds[shard] != n {
				t.Errorf("procs %d shard %d: %d starts and %d ends, want %d each", procs, shard, n, rec.shardEnds[shard], steps)
			}
		}
		if procs == 1 {
			ref = rec
			return
		}
		if !reflect.DeepEqual(scheduleFree(rec.rounds), scheduleFree(ref.rounds)) {
			t.Errorf("procs %d and procs 1 traces differ:\n%+v\nvs\n%+v", procs, rec.rounds, ref.rounds)
		}
	})
	// The per-round Done counts are monotone and end at n.
	last := ref.rounds[len(ref.rounds)-1]
	if last.Done != g.NumNodes() {
		t.Errorf("final Done=%d, want %d", last.Done, g.NumNodes())
	}
	for i := 1; i < len(ref.rounds); i++ {
		if ref.rounds[i].Done < ref.rounds[i-1].Done {
			t.Errorf("Done regressed from %d to %d at round %d (echo protocol never un-finishes)",
				ref.rounds[i-1].Done, ref.rounds[i].Done, i)
		}
	}
}

// sizedPayload gives each message an explicit size in Sizer units.
type sizedPayload struct{ size int }

func (s sizedPayload) PayloadSize() int { return s.size }

// sizerProtocol sends one sized message per neighbor for two rounds.
type sizerProtocol struct {
	size   int
	rounds int
}

func (p *sizerProtocol) Init(ctx *Context) {
	for _, u := range ctx.Neighbors() {
		ctx.Send(u, sizedPayload{size: p.size})
	}
}
func (p *sizerProtocol) Round(ctx *Context, inbox []Message) {
	if p.rounds++; p.rounds < 2 {
		for _, u := range ctx.Neighbors() {
			ctx.Send(u, sizedPayload{size: p.size})
		}
	}
}
func (p *sizerProtocol) Done() bool  { return p.rounds >= 2 }
func (p *sizerProtocol) Output() any { return nil }

// TestResultVolumeWithSizer checks that Result.Volume and the per-round
// observer Volume both honour Sizer payloads instead of counting 1 per
// message.
func TestResultVolumeWithSizer(t *testing.T) {
	g := gen.Cycle(5)
	rec := newRecordingObserver()
	_, res, err := runIDs(graph.NewIndexed(g), RunOpts{Observer: rec}, 10, func(v graph.ID) Protocol {
		return &sizerProtocol{size: 7}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 nodes × 2 neighbors × 2 sending steps (Init + round 1).
	wantMsgs := 5 * 2 * 2
	if res.Messages != wantMsgs {
		t.Fatalf("messages=%d, want %d", res.Messages, wantMsgs)
	}
	if res.Volume != 7*wantMsgs {
		t.Errorf("volume=%d, want %d (Sizer units)", res.Volume, 7*wantMsgs)
	}
	sum := 0
	for _, st := range rec.rounds {
		sum += st.Volume
		if st.Messages > 0 && st.Volume != 7*st.Messages {
			t.Errorf("round %d: volume=%d for %d messages, want %d", st.Round, st.Volume, st.Messages, 7*st.Messages)
		}
	}
	if sum != res.Volume {
		t.Errorf("per-round volumes sum to %d, result says %d", sum, res.Volume)
	}
}

// mixedSizeProtocol sends one Sizer and one plain payload per round, so
// both accounting branches run in one engine pass.
type mixedSizeProtocol struct{ done bool }

func (p *mixedSizeProtocol) Init(ctx *Context) {
	nbrs := ctx.Neighbors()
	ctx.Send(nbrs[0], sizedPayload{size: 10})
	ctx.Send(nbrs[0], "plain")
}
func (p *mixedSizeProtocol) Round(ctx *Context, inbox []Message) { p.done = true }
func (p *mixedSizeProtocol) Done() bool                          { return p.done }
func (p *mixedSizeProtocol) Output() any                         { return nil }

func TestResultVolumeMixedPayloads(t *testing.T) {
	g := gen.Cycle(4)
	_, res, err := runIDs(graph.NewIndexed(g), RunOpts{}, 10, func(v graph.ID) Protocol {
		return &mixedSizeProtocol{}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per node: one 10-unit payload + one default 1-unit payload.
	if want := 4 * (10 + 1); res.Volume != want {
		t.Errorf("volume=%d, want %d", res.Volume, want)
	}
}

// sendToProtocol sends one message in Init, to node to, and finishes
// in round 1.
type sendToProtocol struct {
	to   graph.ID
	done bool
}

func (p *sendToProtocol) Init(ctx *Context)                   { ctx.Send(p.to, 1) }
func (p *sendToProtocol) Round(ctx *Context, inbox []Message) { p.done = true }
func (p *sendToProtocol) Done() bool                          { return p.done }
func (p *sendToProtocol) Output() any                         { return nil }

// sendToProgram runs sendToProtocol on every node of ix, each sending
// to its own ID plus offset, on either runtime. Its nodes output
// nothing and the runs fail in Init, so the codecs are trivial.
type sendToProgram struct {
	ix     *graph.Indexed
	offset graph.ID
}

func (p sendToProgram) NewNode(i int) Protocol {
	return &sendToProtocol{to: p.ix.IDOf(i) + p.offset}
}
func (p sendToProgram) Params() (string, []byte, error) {
	return "sendto-test", []byte(strconv.Itoa(int(p.offset))), nil
}
func (sendToProgram) EncodePayload(any) ([]byte, error)          { return nil, nil }
func (sendToProgram) DecodePayload([]byte) (any, error)          { return nil, nil }
func (sendToProgram) EncodeOutput(int, Protocol) ([]byte, error) { return nil, nil }
func (sendToProgram) DecodeOutput(int, []byte) (any, error)      { return nil, nil }

func init() {
	RegisterProgram("sendto-test", func(ix *graph.Indexed, params []byte) (Program, error) {
		offset, err := strconv.Atoi(string(params))
		return sendToProgram{ix: ix, offset: graph.ID(offset)}, err
	})
}

// TestSendOnlyToNeighbors pins the Send contract of the LOCAL model: a
// node sends to its neighbors only. A self-send and a send two hops
// away each fail with one text, naming the lowest-index sender, under
// every GOMAXPROCS and on two shards.
func TestSendOnlyToNeighbors(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(50)) // IDs 0..49 in a path
	for _, tc := range []struct {
		name   string
		offset graph.ID
		want   string
	}{
		{"self", 0, "dist: node program panicked: dist: node 0 sent to 0, which is not a neighbor"},
		{"distant", 2, "dist: node program panicked: dist: node 0 sent to 2, which is not a neighbor"},
	} {
		prog := sendToProgram{ix: ix, offset: tc.offset}
		proctest.Sweep(func(procs int) {
			if _, _, err := Run(ix, prog, RunOpts{}, 5); err == nil || err.Error() != tc.want {
				t.Fatalf("%s, procs %d: err = %v, want %q", tc.name, procs, err, tc.want)
			}
		})
		if _, _, err := Run(ix, prog, RunOpts{Part: NewLocalPartition(ix, 2)}, 5); err == nil || err.Error() != tc.want {
			t.Fatalf("%s, 2 shards: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSendUnknownTarget pins the Send error contract for a target that
// is not a node at all: it is just a non-neighbor, and the node-program
// panic is recovered by the engine and surfaced as an error from Run
// (adversarial_test.go repeats it under the GOMAXPROCS sweep).
func TestSendUnknownTarget(t *testing.T) {
	g := gen.Path(3)
	_, _, err := runIDs(graph.NewIndexed(g), RunOpts{}, 10, func(v graph.ID) Protocol {
		return &sendToProtocol{to: 999}
	})
	if err == nil {
		t.Fatal("send to a non-node did not surface an error from Run")
	}
	if !strings.Contains(err.Error(), "sent to 999, which is not a neighbor") {
		t.Errorf("error %q does not name the bad target", err)
	}
}

// oscillatingProtocol reports Done on even rounds and not-done on odd
// rounds until it finally settles: the engine's done counter must track
// transitions in both directions.
type oscillatingProtocol struct {
	rounds int
	settle int
}

func (p *oscillatingProtocol) Init(ctx *Context) { ctx.Broadcast(1) }
func (p *oscillatingProtocol) Round(ctx *Context, inbox []Message) {
	p.rounds++
	if p.rounds < p.settle {
		ctx.Broadcast(1)
	}
}
func (p *oscillatingProtocol) Done() bool {
	if p.rounds >= p.settle {
		return true
	}
	return p.rounds%2 == 0
}
func (p *oscillatingProtocol) Output() any { return p.rounds }

// TestDoneCounterOscillation ensures the incremental done counter stays
// correct when Done() flips back and forth (the contract allows it: the
// run stops only when all nodes are simultaneously Done after a round).
func TestDoneCounterOscillation(t *testing.T) {
	g := gen.Cycle(4)
	proctest.Sweep(func(procs int) {
		// settle=5 (odd): nodes report done after even rounds 2 and 4
		// but un-done after 1, 3; all settle for good at round 5.
		outs, res, err := runIDs(graph.NewIndexed(g), RunOpts{}, 20, func(v graph.ID) Protocol {
			return &oscillatingProtocol{settle: 5}
		})
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		// All nodes report Done after round 2 already (rounds=2 is even),
		// so the run stops there — the point is the counter must agree.
		for v, out := range outs {
			if out.(int) != res.Rounds {
				t.Errorf("procs %d: node %d ran %d rounds, engine says %d", procs, v, out, res.Rounds)
			}
		}
	})
}
