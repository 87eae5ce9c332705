package dist

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// relayPayload is the relay test program's payload. It is a pointer, so
// a test can tell one shared payload from equal copies.
type relayPayload struct{ From int32 }

// relayProgram is a test program for the block relay: node 0 broadcasts
// one payload at Init, and every node keeps the inbox of its first
// round. The program counts its payload encodings and decodings.
type relayProgram struct {
	encodes, decodes int
}

type relayNode struct {
	idx   int
	inbox []Message
	done  bool
}

func (p *relayNode) Init(ctx *Context) {
	if p.idx == 0 {
		ctx.Broadcast(&relayPayload{From: 0})
	}
}

func (p *relayNode) Round(ctx *Context, inbox []Message) {
	if !p.done {
		p.inbox = append(p.inbox, inbox...)
		p.done = true
	}
}

func (p *relayNode) Done() bool  { return p.done }
func (p *relayNode) Output() any { return len(p.inbox) }

func (rp *relayProgram) NewNode(i int) Protocol { return &relayNode{idx: i} }

func (rp *relayProgram) Params() (string, []byte, error) { return "relay-test", nil, nil }

func (rp *relayProgram) EncodePayload(p any) ([]byte, error) {
	rp.encodes++
	return binary.AppendUvarint(nil, uint64(p.(*relayPayload).From)), nil
}

func (rp *relayProgram) DecodePayload(data []byte) (any, error) {
	rp.decodes++
	v, n := binary.Uvarint(data)
	if n != len(data) {
		return nil, fmt.Errorf("relay payload of %d bytes", len(data))
	}
	return &relayPayload{From: int32(v)}, nil
}

func (rp *relayProgram) EncodeOutput(i int, p Protocol) ([]byte, error) {
	return binary.AppendUvarint(nil, uint64(p.Output().(int))), nil
}

func (rp *relayProgram) DecodeOutput(i int, data []byte) (any, error) {
	v, _ := binary.Uvarint(data)
	return int(v), nil
}

func init() {
	RegisterProgram("relay-test", func(*graph.Indexed, []byte) (Program, error) { return &relayProgram{}, nil })
}

// blockEntry is one parsed entry of a block.
type blockEntry struct {
	sender  int32
	targets []int32
	payload []byte
}

// parseBlock splits a well-formed block into its entries.
func parseBlock(t *testing.T, b []byte) []blockEntry {
	t.Helper()
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatalf("malformed block")
		}
		b = b[n:]
		return v
	}
	var out []blockEntry
	for len(b) > 0 {
		e := blockEntry{sender: int32(next())}
		for range next() {
			e.targets = append(e.targets, int32(next()))
		}
		size := next()
		e.payload, b = b[:size], b[size:]
		out = append(out, e)
	}
	return out
}

// relayRound steps every runner through round and delivers every block
// to its destination, as the coordinator does; it returns the step
// results.
func relayRound(t testing.TB, runners []*ShardRunner, round int) []*ShardStepResult {
	t.Helper()
	results := make([]*ShardStepResult, len(runners))
	for s, r := range runners {
		if results[s] = r.Step(round); results[s].Err != "" {
			t.Fatal(results[s].Err)
		}
	}
	for d, r := range runners {
		in := make([][]byte, len(runners))
		for s, res := range results {
			in[s] = res.Blocks[d]
		}
		if _, err := r.Deliver(round, in); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

func newRunners(t testing.TB, ix *graph.Indexed, ranges []PartRange, program string, params []byte, spec string) []*ShardRunner {
	t.Helper()
	runners := make([]*ShardRunner, len(ranges))
	for s := range runners {
		r, err := NewShardRunner(ix, ShardConfig{Shard: s, Ranges: ranges, Program: program, Params: params, FaultSpec: spec, FaultSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		runners[s] = r
	}
	return runners
}

// TestRelaySharesDecodedPayload: a star's center on shard 0 broadcasts
// to k leaves on shard 1. The broadcast must cross as one block entry
// listing every leaf (each twice, adjacent, under dup=1), be decoded
// once, and reach every leaf as one shared payload, in the inbox order
// the LOCAL engine delivers.
func TestRelaySharesDecodedPayload(t *testing.T) {
	const k = 6
	ix := graph.NewIndexed(gen.Star(k + 1))
	ranges := []PartRange{{0, 1}, {1, k + 1}}
	for _, spec := range []string{"", "dup=1"} {
		copies := 1
		var lf *Faults
		if spec != "" {
			copies = 2
			var err error
			if lf, err = ParseFaults(spec, 1); err != nil {
				t.Fatal(err)
			}
		}
		local := make([]*relayNode, ix.NumNodes())
		keep := NodeFunc(func(i int) Protocol {
			local[i] = &relayNode{idx: i}
			return local[i]
		})
		if _, _, err := Run(ix, keep, RunOpts{Faults: lf}, 2); err != nil {
			t.Fatalf("%q: local run: %v", spec, err)
		}

		runners := newRunners(t, ix, ranges, "relay-test", nil, spec)
		results := relayRound(t, runners, 0)
		var want []int32
		for leaf := int32(1); leaf <= k; leaf++ {
			for range copies {
				want = append(want, leaf)
			}
		}
		entries := parseBlock(t, results[0].Blocks[1])
		if len(entries) != 1 || entries[0].sender != 0 || !reflect.DeepEqual(entries[0].targets, want) {
			t.Fatalf("%q: center's broadcast crossed as %+v, want one entry from 0 to %v", spec, entries, want)
		}
		relayRound(t, runners, 1)
		if sender, receiver := runners[0].prog.(*relayProgram), runners[1].prog.(*relayProgram); sender.encodes != 1 || receiver.decodes != 1 {
			t.Fatalf("%q: %d encodings and %d decodings, want 1 and 1", spec, sender.encodes, receiver.decodes)
		}
		var shared any
		for j, p := range runners[1].nodes.progs {
			got, wantIn := p.(*relayNode).inbox, local[1+j].inbox
			if len(got) != copies || len(wantIn) != copies {
				t.Fatalf("%q: leaf %d inbox has %d messages, LOCAL %d, want %d", spec, 1+j, len(got), len(wantIn), copies)
			}
			for c, m := range got {
				if shared == nil {
					shared = m.Payload
				}
				if m.Payload != shared {
					t.Fatalf("%q: leaf %d copy %d holds its own payload, want the shared decoding", spec, 1+j, c)
				}
				if m.From != wantIn[c].From || *m.Payload.(*relayPayload) != *wantIn[c].Payload.(*relayPayload) {
					t.Fatalf("%q: leaf %d copy %d is %+v, LOCAL %+v", spec, 1+j, c, m, wantIn[c])
				}
			}
		}
	}
}

// floodShards sets up a 3-shard flood of radius 2 over a small chordal
// graph and returns a function that starts fresh runners for it, and
// hostedBy, which names a node that shard s hosts.
func floodShards(t testing.TB) (start func(t testing.TB) []*ShardRunner, hostedBy func(s int) uint64) {
	ix := graph.NewIndexed(gen.RandomChordal(30, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7))
	_, params, err := radiusParams("flood", 2)
	if err != nil {
		t.Fatal(err)
	}
	ranges := SplitRange(ix.NumNodes(), 3)
	start = func(t testing.TB) []*ShardRunner { return newRunners(t, ix, ranges, "flood", params, "") }
	hostedBy = func(s int) uint64 { return uint64(ix.BFSOrder()[ranges[s].Lo]) }
	return start, hostedBy
}

// block builds a block from uvarint fields, then raw payload bytes.
func block(payload []byte, fields ...uint64) []byte {
	var b []byte
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, payload...)
}

// TestShardDeliverRejectsMalformedBlocks hands shard 1 of 3 a block
// from shard 0: the sender must be a node shard 0 hosts, and every
// target one that shard 1 hosts.
func TestShardDeliverRejectsMalformedBlocks(t *testing.T) {
	start, hostedBy := floodShards(t)
	src, mine, other := hostedBy(0), hostedBy(1), hostedBy(2)
	payload := binary.LittleEndian.AppendUint32(nil, uint32(src))
	for _, c := range []struct {
		name, want string
		blocks     [][]byte
	}{
		{"sender beyond the snapshot", "sender that shard does not host", [][]byte{block(payload, 1<<20, 1, mine, 4), nil, nil}},
		{"sender hosted by the receiver", "sender that shard does not host", [][]byte{block(payload, mine, 1, mine, 4), nil, nil}},
		{"sender hosted by a third shard", "sender that shard does not host", [][]byte{block(payload, other, 1, mine, 4), nil, nil}},
		{"zero targets", "bad target count", [][]byte{block(payload, src, 0, 4), nil, nil}},
		{"target beyond the snapshot", "targets a node shard 1 does not host", [][]byte{block(payload, src, 1, 1<<20, 4), nil, nil}},
		{"target hosted by the source", "targets a node shard 1 does not host", [][]byte{block(payload, src, 1, src, 4), nil, nil}},
		{"target hosted by a third shard", "targets a node shard 1 does not host", [][]byte{block(payload, src, 1, other, 4), nil, nil}},
		{"truncated payload", "truncated payload", [][]byte{block(payload[:2], src, 1, mine, 4), nil, nil}},
		{"truncated entry", "truncated payload", [][]byte{block(nil, src, 1, mine), nil, nil}},
		{"block from itself", "from itself", [][]byte{nil, {0}, nil}},
		{"short block list", "2 blocks for 3 shards", [][]byte{nil, nil}},
	} {
		r := start(t)[1]
		r.Step(0)
		if _, err := r.Deliver(0, c.blocks); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Deliver = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// FuzzShardDeliverBlock feeds arbitrary bytes to a started flood shard
// as the block of shard 0: Deliver must return an error or succeed,
// never panic. The corpus starts from the blocks a real flood sends
// from shard 0 to shard 1, and from hand-built entries whose sender or
// target a shard other than the expected one hosts.
func FuzzShardDeliverBlock(f *testing.F) {
	start, hostedBy := floodShards(f)
	runners := start(f)
	for round := range 3 {
		f.Add(slices.Clone(relayRound(f, runners, round)[0].Blocks[1]))
	}
	src, mine, other := hostedBy(0), hostedBy(1), hostedBy(2)
	payload := binary.LittleEndian.AppendUint32(nil, uint32(src))
	f.Add(block(payload, other, 1, mine, 4))
	f.Add(block(payload, src, 2, mine, other, 4))
	f.Fuzz(func(t *testing.T, b []byte) {
		r := start(t)[1]
		r.Step(0)
		_, _ = r.Deliver(0, [][]byte{b, nil, nil})
	})
}
