package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// encodeParamsWire gob-encodes hand-built correction params.
func encodeParamsWire(t testing.TB, w corrParamsWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oneShardRunner builds a shard runner hosting every node of ix under
// the correction program with the given params.
func oneShardRunner(ix *graph.Indexed, params []byte) (*dist.ShardRunner, error) {
	return dist.NewShardRunner(ix, dist.ShardConfig{
		Ranges:  dist.SplitRange(ix.NumNodes(), 1),
		Program: "correction",
		Params:  params,
	})
}

// TestCorrectionParamsRejectOutOfRangeGroup is the regression for
// params that only had their node counts checked: a group whose kid
// range ends at 5 over a 1-entry kid slab used to pass the program
// constructor and the shard runner, then fail Step(0) as a node-program
// panic (index out of range). It must fail at decode time.
func TestCorrectionParamsRejectOutOfRangeGroup(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(3))
	blob := encodeParamsWire(t, corrParamsWire{
		Groups:    []corrGroupWire{{Layer: 1, KidOff: 0, KidEnd: 5}},
		KidIdx:    []int32{1},
		HasParent: []bool{false, true, false},
		NodeGOff:  []int32{0, 1, 1, 1},
		TTL:       5,
	})
	if _, err := newCorrectionProgram(ix, blob); err == nil {
		t.Fatal("params with an out-of-range kid range were accepted")
	}
	if _, err := oneShardRunner(ix, blob); err == nil || !strings.Contains(err.Error(), "kid range") {
		t.Fatalf("shard runner over the bad params: err = %v, want a kid-range error", err)
	}
}

// TestCorrectionParamsValidation covers each rule of the decode-time
// check, one broken field at a time over an otherwise valid blob.
func TestCorrectionParamsValidation(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(3))
	valid := func() corrParamsWire {
		return corrParamsWire{
			Groups:    []corrGroupWire{{Layer: 1, KidOff: 0, KidEnd: 1, GateOff: 0, GateEnd: 1}},
			KidIdx:    []int32{0},
			Gates:     []int32{2},
			HasParent: []bool{true, false, false},
			NodeGOff:  []int32{0, 0, 1, 1},
			TTL:       5,
		}
	}
	if _, err := newCorrectionProgram(ix, encodeParamsWire(t, valid())); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for name, mutate := range map[string]func(*corrParamsWire){
		"node count":          func(w *corrParamsWire) { w.HasParent = w.HasParent[:2] },
		"decreasing offsets":  func(w *corrParamsWire) { w.NodeGOff = []int32{0, 1, 0, 1} },
		"offset past groups":  func(w *corrParamsWire) { w.NodeGOff = []int32{0, 0, 1, 2} },
		"negative offset":     func(w *corrParamsWire) { w.NodeGOff = []int32{-1, 0, 1, 1} },
		"reversed kid range":  func(w *corrParamsWire) { w.Groups[0].KidOff, w.Groups[0].KidEnd = 1, 0 },
		"gate range past":     func(w *corrParamsWire) { w.Groups[0].GateEnd = 2 },
		"negative gate start": func(w *corrParamsWire) { w.Groups[0].GateOff = -1 },
		"kid index":           func(w *corrParamsWire) { w.KidIdx[0] = 3 },
		"gate index":          func(w *corrParamsWire) { w.Gates[0] = -1 },
		"negative TTL":        func(w *corrParamsWire) { w.TTL = -1 },
	} {
		w := valid()
		mutate(&w)
		if _, err := newCorrectionProgram(ix, encodeParamsWire(t, w)); err == nil {
			t.Errorf("%s: broken params accepted", name)
		}
	}
}

// realCorrectionRun returns the snapshot and the params blob that
// RunCorrectionPhase ships to a partition for a real pipeline run, plus the payload
// bytes its shards put on the wire in the first two steps. It runs four
// shards: two BFS chunks of this graph share so few arcs that only two
// payloads would cross.
func realCorrectionRun(t testing.TB) (*graph.Indexed, []byte, [][]byte) {
	t.Helper()
	g := gen.RandomChordal(40, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.4}, 3)
	k := EffectiveK(0.5)
	outcome, err := DistributedPrune(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ix, prog := outcome.Snapshot, correctionPrecompute(outcome, k, nil)
	_, params, err := prog.Params()
	if err != nil {
		t.Fatal(err)
	}
	ranges := dist.SplitRange(ix.NumNodes(), 4)
	var payloads [][]byte
	for shard := range ranges {
		r, err := dist.NewShardRunner(ix, dist.ShardConfig{Shard: shard, Ranges: ranges, Program: "correction", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			res := r.Step(round)
			if res.Err != "" {
				t.Fatal(res.Err)
			}
			for _, b := range res.Blocks {
				payloads = append(payloads, blockPayloads(t, b)...)
			}
			if _, err := r.Deliver(round, make([][]byte, len(ranges))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(payloads) == 0 {
		t.Fatal("the correction run put no payload on the wire")
	}
	return ix, params, payloads
}

// blockPayloads splits a shard block (entries of sender, target count,
// targets, payload size, payload) into its payloads.
func blockPayloads(t testing.TB, b []byte) [][]byte {
	var out [][]byte
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("malformed block")
		}
		b = b[n:]
		return v
	}
	for len(b) > 0 {
		next() // sender
		for count := next(); count > 0; count-- {
			next()
		}
		size := next()
		out = append(out, append([]byte(nil), b[:size]...))
		b = b[size:]
	}
	return out
}

// FuzzCorrectionParams: whatever params blob a shard host is handed,
// either the program rejects it at construction or every node's Init —
// the step that reads the child groups and gates — completes
// without a node-program panic.
func FuzzCorrectionParams(f *testing.F) {
	ix, params, _ := realCorrectionRun(f)
	f.Add(params)
	f.Add(encodeParamsWire(f, corrParamsWire{
		Groups:    []corrGroupWire{{Layer: 1, KidOff: 0, KidEnd: 5}},
		KidIdx:    []int32{1},
		HasParent: make([]bool, ix.NumNodes()),
		NodeGOff:  make([]int32, ix.NumNodes()+1),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := oneShardRunner(ix, data)
		if err != nil {
			return
		}
		if res := r.Step(0); res.Err != "" {
			t.Fatalf("accepted params failed Step(0): %s", res.Err)
		}
	})
}

// FuzzCorrectionPayload: a payload the correction codec decodes
// re-encodes to exactly the same bytes, so a relayed message is never
// silently altered.
func FuzzCorrectionPayload(f *testing.F) {
	ix, params, payloads := realCorrectionRun(f)
	for _, p := range payloads {
		f.Add(p)
	}
	prog, err := newCorrectionProgram(ix, params)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := prog.DecodePayload(data)
		if err != nil {
			return
		}
		again, err := prog.EncodePayload(pl)
		if err != nil {
			t.Fatalf("decoded payload %#v does not re-encode: %v", pl, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("payload %x re-encodes as %x", data, again)
		}
	})
}
