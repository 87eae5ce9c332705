package dist

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// These tests pin the flood's record layout: a record is its snapshot
// index, in memory as on the wire, so a flood copies four bytes per
// delivered record, a codec round-trips bytes unchanged, and a decoded
// knowledge satisfies the discovery-order invariant its consumers rely
// on.

// TestFloodBytesPerRecord bounds what a flood allocates per record it
// accepts. A record stored as a struct with pointer fields costs over a
// hundred bytes here (the struct in every batch and every knowledge);
// an index record costs the index, its distance and their share of the
// per-node and per-round overhead.
func TestFloodBytesPerRecord(t *testing.T) {
	ix := graph.NewIndexed(gen.HubTree(3, 40))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ks, _, err := Flood(ix, 100, RunOpts{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for _, k := range ks {
		recs += k.Size()
	}
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(recs)
	t.Logf("%d nodes, %d records, %.1f B/record", ix.NumNodes(), recs, perRec)
	if perRec > 40 {
		t.Fatalf("flood allocated %.1f B per accepted record, want ≤ 40", perRec)
	}
}

// knowledgeBytes encodes a knowledge record by record:
// (count, [idx, dist]...).
func knowledgeBytes(recs ...[2]int32) []byte {
	b := appendI32(nil, int32(len(recs)))
	for _, r := range recs {
		b = appendI32(appendI32(b, r[0]), r[1])
	}
	return b
}

// TestDecodeKnowledgeRejectsMalformed: a shard output that breaks the
// discovery-order invariant — center first at distance 0, distinct
// in-range indices, nondecreasing distances within the radius — is an
// error, not a knowledge that misleads its readers downstream.
func TestDecodeKnowledgeRejectsMalformed(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(6))
	const center, radius = 0, 2
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"center displaced, index repeated, distance decreasing", "starts with record 3",
			knowledgeBytes([2]int32{3, 0}, [2]int32{3, 1}, [2]int32{2, 0})},
		{"no records", "0 records", knowledgeBytes()},
		{"center at distance 1", "starts with record 0 at distance 1", knowledgeBytes([2]int32{0, 1})},
		{"index repeated", "repeats index 1", knowledgeBytes([2]int32{0, 0}, [2]int32{1, 1}, [2]int32{1, 1})},
		{"center repeated", "repeats index 0", knowledgeBytes([2]int32{0, 0}, [2]int32{0, 1})},
		{"distance decreasing", "distance 1 after 2", knowledgeBytes([2]int32{0, 0}, [2]int32{2, 2}, [2]int32{1, 1})},
		{"distance beyond radius", "distance 3", knowledgeBytes([2]int32{0, 0}, [2]int32{1, 1}, [2]int32{3, 3})},
		{"index out of range", "out of range", knowledgeBytes([2]int32{0, 0}, [2]int32{6, 1})},
		{"negative index", "out of range", knowledgeBytes([2]int32{0, 0}, [2]int32{-1, 1})},
		{"truncated", "bytes for 2 records", knowledgeBytes([2]int32{0, 0}, [2]int32{1, 1})[:16]},
	} {
		for _, bitmap := range []bool{true, false} {
			k, err := decodeKnowledge(ix, center, radius, bitmap, c.data)
			if err == nil {
				t.Fatalf("%s (bitmap %v): decoded into %d records, want an error", c.name, bitmap, k.Size())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s (bitmap %v): error %q does not mention %q", c.name, bitmap, err, c.want)
			}
		}
	}
	ok := knowledgeBytes([2]int32{0, 0}, [2]int32{1, 1}, [2]int32{2, 2})
	k, err := decodeKnowledge(ix, center, radius, true, ok)
	if err != nil {
		t.Fatalf("well-formed knowledge rejected: %v", err)
	}
	checkKnowledgeInvariants(t, k, center, radius)
}

// checkKnowledgeInvariants fails t unless k is ordered as a flood
// discovers: center first at distance 0, distinct in-range indices,
// nondecreasing distances within radius, and the membership structure
// agreeing with the records.
func checkKnowledgeInvariants(t *testing.T, k *Knowledge, center, radius int) {
	t.Helper()
	n := k.snap.NumNodes()
	if k.Size() == 0 || k.recs[0] != int32(center) || k.dist[0] != 0 {
		t.Fatalf("knowledge of %d does not start with its center at distance 0", center)
	}
	if k.Center != k.snap.IDOf(center) {
		t.Fatalf("knowledge Center %d, want %d", k.Center, k.snap.IDOf(center))
	}
	seen := make(map[int32]bool, k.Size())
	for i, idx := range k.recs {
		if idx < 0 || int(idx) >= n || seen[idx] {
			t.Fatalf("record %d: index %d out of range or repeated", i, idx)
		}
		seen[idx] = true
		if i > 0 && k.dist[i] < k.dist[i-1] || int(k.dist[i]) > radius {
			t.Fatalf("record %d: distance %d breaks the discovery order (radius %d)", i, k.dist[i], radius)
		}
	}
	for i := range int32(n) {
		if k.KnownIdx(i) != seen[i] {
			t.Fatalf("KnownIdx(%d) = %v, records say %v", i, k.KnownIdx(i), seen[i])
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
// it must reject it or return a knowledge in discovery order that
// re-encodes to the same bytes, never panic.
func FuzzDecodeKnowledge(f *testing.F) {
	const radius = 3
	ix, _, _, flood := tappedRun(f, "flood", radius, radius+1, 0)
	_, _, _, retrans := tappedRun(f, "retrans", radius, 20, 0)
	for i := 0; i < len(flood); i += 7 {
		f.Add(uint16(i), true, flood[i])
		f.Add(uint16(i), false, retrans[i])
	}
	f.Add(uint16(0), true, knowledgeBytes([2]int32{3, 0}, [2]int32{3, 1}, [2]int32{2, 0}))
	f.Fuzz(func(t *testing.T, center uint16, bitmap bool, b []byte) {
		c := int(center) % ix.NumNodes()
		k, err := decodeKnowledge(ix, c, radius, bitmap, b)
		if err != nil {
			return
		}
		checkKnowledgeInvariants(t, k, c, radius)
		if re := encodeKnowledge(k); !bytes.Equal(re, b) {
			t.Fatalf("knowledge re-encodes to %x, want %x", re, b)
		}
	})
}
