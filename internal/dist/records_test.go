package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// These tests pin the flood's layout: a record is its snapshot index, in
// memory as on the wire, so a flood copies four bytes per delivered
// record and a payload codec round-trips bytes unchanged; a node keeps
// no log of its records, only its member set, so what a flood allocates
// does not grow with its rounds; and a shard's output is that set as
// ascending gaps, which decodes only when well formed.

// TestFloodAllocRadiusIndependent bounds what a flood allocates by the
// knowledge it holds, not by the records it has accepted: on
// gen.HubTree(3,40) a radius-100 flood accepts 4.9 times the records of
// a radius-25 one (195,104 against 39,432) and may allocate at most 1.25
// times as much. Per-node logs of every accepted record and its
// distance made that 3.95 MB against 1.16 MB (3.4×); the member sets
// and the two reused fresh-record buffers take 537 KB against 483 KB.
func TestFloodAllocRadiusIndependent(t *testing.T) {
	ix := graph.NewIndexed(gen.HubTree(3, 40))
	flood := func(radius int) (alloc uint64, recs int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ks, _, err := Flood(ix, radius, RunOpts{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			recs += k.Size()
		}
		return after.TotalAlloc - before.TotalAlloc, recs
	}
	shortAlloc, shortRecs := flood(25)
	longAlloc, longRecs := flood(100)
	ratio := float64(longAlloc) / float64(shortAlloc)
	t.Logf("%d nodes: radius 25 holds %d records in %d B, radius 100 holds %d in %d B (%.2f×)",
		ix.NumNodes(), shortRecs, shortAlloc, longRecs, longAlloc, ratio)
	if ratio > 1.25 {
		t.Fatalf("radius-100 flood allocated %.2f× the radius-25 flood, want ≤ 1.25×", ratio)
	}
}

// knowledgeBytes encodes a knowledge as the codec lays it out: the
// count, then each gap, all uvarints.
func knowledgeBytes(count uint64, gaps ...uint64) []byte {
	b := binary.AppendUvarint(nil, count)
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
	}
	return b
}

// TestDecodeKnowledgeRejectsMalformed: a shard output that is not the
// encoding of a member set holding the center — a count of 1 to n, that
// many strictly ascending in-range members as minimal uvarint gaps, no
// trailing bytes — is an error, not a knowledge that misleads its
// readers downstream.
func TestDecodeKnowledgeRejectsMalformed(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(6))
	const center, radius = 2, 2
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"empty input", "knowledge count: truncated uvarint", nil},
		{"no members", "holds 0 members", knowledgeBytes(0)},
		{"more members than nodes", "holds 7 members", knowledgeBytes(7, 0, 1, 1, 1, 1, 1, 1)},
		{"center missing", "does not hold its center", knowledgeBytes(2, 0, 1)},
		{"member repeated", "member 2 does not ascend past index 2", knowledgeBytes(3, 1, 1, 0)},
		{"member past the snapshot", "member 1 lies 5 past index 2, out of range [0, 6)", knowledgeBytes(2, 2, 5)},
		{"first member past the snapshot", "member 0 lies 6 past index 0", knowledgeBytes(1, 6)},
		{"gap wrapping past 2^64", "out of range", knowledgeBytes(2, 2, math.MaxUint64)},
		{"count above the members", "member 2 of 3: truncated uvarint", knowledgeBytes(3, 1, 1)},
		{"count below the members", "1 trailing bytes after 2 members", knowledgeBytes(2, 1, 1, 1)},
		{"padded count", "knowledge count: uvarint is not minimally encoded", []byte{0x82, 0x00, 1, 1}},
		{"padded gap", "member 1 of 2: uvarint is not minimally encoded", []byte{2, 2, 0x81, 0x00}},
		{"gap past 64 bits", "uvarint overflows 64 bits", append(knowledgeBytes(2, 2), append(bytes.Repeat([]byte{0xff}, 9), 2)...)},
	} {
		for _, bitmap := range []bool{true, false} {
			k, err := decodeKnowledge(ix, center, radius, bitmap, c.data)
			if err == nil {
				t.Fatalf("%s (bitmap %v): decoded into %d members, want an error", c.name, bitmap, k.Size())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s (bitmap %v): error %q does not mention %q", c.name, bitmap, err, c.want)
			}
		}
	}
	ok := knowledgeBytes(3, 1, 1, 1)
	for _, bitmap := range []bool{true, false} {
		k, err := decodeKnowledge(ix, center, radius, bitmap, ok)
		if err != nil {
			t.Fatalf("well-formed knowledge rejected (bitmap %v): %v", bitmap, err)
		}
		if got := checkMembers(t, ix, k, center); !slices.Equal(got, []int32{1, 2, 3}) || (k.seen != nil) != bitmap {
			t.Fatalf("bitmap %v: decoded members %v dense %v, want [1 2 3] dense %v", bitmap, got, k.seen != nil, bitmap)
		}
	}
}

// payloadTap wraps a node program and records the encoding of every
// payload delivered to it.
type payloadTap struct {
	Protocol
	prog Program
	mu   *sync.Mutex
	out  *[][]byte
}

func (p *payloadTap) Round(ctx *Context, inbox []Message) {
	for _, m := range inbox {
		b, err := p.prog.EncodePayload(m.Payload)
		if err != nil {
			panic(err)
		}
		p.mu.Lock()
		*p.out = append(*p.out, b)
		p.mu.Unlock()
	}
	p.Protocol.Round(ctx, inbox)
}

// tappedRun runs the registered flood program on a small chordal graph
// under the LOCAL engine and returns the program, the distinct encodings
// of the delivered payloads (at most limit of them) and every node's
// encoded output: real traffic to seed the codec fuzzers with.
func tappedRun(tb testing.TB, program string, radius, budget, limit int) (*graph.Indexed, Program, [][]byte, [][]byte) {
	tb.Helper()
	ix := graph.NewIndexed(gen.RandomChordal(30, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7))
	_, params, err := radiusParams(program, radius)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := NewProgram(program, ix, params)
	if err != nil {
		tb.Fatal(err)
	}
	var mu sync.Mutex
	var payloads [][]byte
	nodes := make([]Protocol, ix.NumNodes())
	tap := NodeFunc(func(i int) Protocol {
		nodes[i] = prog.NewNode(i)
		return &payloadTap{Protocol: nodes[i], prog: prog, mu: &mu, out: &payloads}
	})
	if _, _, err := Run(ix, tap, RunOpts{}, budget); err != nil {
		tb.Fatal(err)
	}
	outputs := make([][]byte, len(nodes))
	for i, p := range nodes {
		if outputs[i], err = prog.EncodeOutput(i, p); err != nil {
			tb.Fatal(err)
		}
	}
	// Ranges step concurrently, so sort for a deterministic corpus, then
	// sample evenly so every payload kind is represented.
	slices.SortFunc(payloads, bytes.Compare)
	payloads = slices.CompactFunc(payloads, bytes.Equal)
	if len(payloads) > limit {
		sample := make([][]byte, limit)
		for i := range sample {
			sample[i] = payloads[i*len(payloads)/limit]
		}
		payloads = sample
	}
	return ix, prog, payloads, outputs
}

// roundTripPayload decodes b and returns the payload, or nil when the
// decoder rejects b: a payload that decodes must re-encode to exactly
// the input bytes.
func roundTripPayload(t *testing.T, prog Program, b []byte) any {
	pl, err := prog.DecodePayload(b)
	if err != nil {
		return nil
	}
	re, err := prog.EncodePayload(pl)
	if err != nil {
		t.Fatalf("decoded payload %T does not re-encode: %v", pl, err)
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("payload re-encodes to %x, want %x", re, b)
	}
	return pl
}

// FuzzFloodPayload feeds arbitrary bytes to the plain flood's payload
// decoder: it must reject them or decode in-range indices that
// re-encode to the same bytes, never panic.
func FuzzFloodPayload(f *testing.F) {
	ix, prog, payloads, _ := tappedRun(f, "flood", 3, 4, 64)
	for _, b := range payloads {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if pl := roundTripPayload(t, prog, b); pl != nil {
			for _, idx := range *pl.(*infoBatch) {
				if idx < 0 || int(idx) >= ix.NumNodes() {
					t.Fatalf("decoded index %d outside the snapshot", idx)
				}
			}
		}
	})
}

// FuzzRetransPayload is FuzzFloodPayload for the retransmitting flood's
// batches and acks.
func FuzzRetransPayload(f *testing.F) {
	_, prog, payloads, _ := tappedRun(f, "retrans", 3, 20, 64)
	for _, b := range payloads {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		roundTripPayload(t, prog, b)
	})
}

// FuzzFloodParams feeds arbitrary params to the floods' params decoder:
// it must reject them or return a radius that re-encodes to the same
// bytes, and a shard runner of either flood built from accepted params
// must step Init without a node panic — on a path, where a negative
// radius once made the size hint a negative capacity, and on a denser
// chordal graph.
func FuzzFloodParams(f *testing.F) {
	graphs := []*graph.Indexed{
		graph.NewIndexed(gen.Path(6)),
		graph.NewIndexed(gen.RandomChordal(30, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7)),
	}
	for _, r := range []int32{0, 1, 3, 443, math.MaxInt32, -1, math.MinInt32} {
		f.Add(appendI32(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		radius, err := decodeRadius(b)
		if err != nil {
			return
		}
		for _, program := range []string{"flood", "retrans"} {
			if _, re, err := radiusParams(program, radius); err != nil || !bytes.Equal(re, b) {
				t.Fatalf("radius %d re-encodes to %x (%v), want %x", radius, re, err, b)
			}
			for _, ix := range graphs {
				r, err := NewShardRunner(ix, ShardConfig{Shard: 0, Ranges: SplitRange(ix.NumNodes(), 2), Program: program, Params: b})
				if err != nil {
					t.Fatalf("%s radius %d: %v", program, radius, err)
				}
				if res := r.Step(0); res.Err != "" {
					t.Fatalf("%s radius %d: %s", program, radius, res.Err)
				}
			}
		}
	})
}

// FuzzDecodeKnowledge feeds arbitrary shard output to decodeKnowledge:
// it must reject it or return a well-formed member set holding the
// center that re-encodes to the same bytes, never panic.
func FuzzDecodeKnowledge(f *testing.F) {
	const radius = 3
	ix, _, _, flood := tappedRun(f, "flood", radius, radius+1, 0)
	_, _, _, retrans := tappedRun(f, "retrans", radius, 20, 0)
	for i := 0; i < len(flood); i += 7 {
		f.Add(uint16(i), true, flood[i])
		f.Add(uint16(i), false, retrans[i])
	}
	f.Add(uint16(2), true, []byte{3, 1, 0x81, 0x00, 1})
	f.Fuzz(func(t *testing.T, center uint16, bitmap bool, b []byte) {
		c := int(center) % ix.NumNodes()
		k, err := decodeKnowledge(ix, c, radius, bitmap, b)
		if err != nil {
			return
		}
		checkMembers(t, ix, k, c)
		if re := encodeKnowledge(k); !bytes.Equal(re, b) {
			t.Fatalf("knowledge re-encodes to %x, want %x", re, b)
		}
	})
}
