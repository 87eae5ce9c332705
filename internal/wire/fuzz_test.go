package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"net"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// realBodies runs the broadcast test program on two in-process shard
// runners for one round and returns the bodies of the binary frames it
// would put on the wire, by kind: the shards' step results, the deliver
// frame each shard receives, and the outputs replies.
func realBodies(t testing.TB) map[byte][][]byte {
	t.Helper()
	ix := graph.NewIndexed(gen.RandomChordal(24, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3))
	ranges := dist.SplitRange(ix.NumNodes(), 2)
	runners := make([]*dist.ShardRunner, len(ranges))
	for s := range runners {
		r, err := dist.NewShardRunner(ix, dist.ShardConfig{Shard: s, Ranges: ranges, Program: "wire-test-bcast"})
		if err != nil {
			t.Fatal(err)
		}
		runners[s] = r
	}
	bodies := map[byte][][]byte{}
	body := func(kind byte, head []byte, blocks [][]byte) {
		bodies[kind] = append(bodies[kind], frameBytes(t, kind, head, blocks)[5:])
	}
	for round := range 2 {
		results := make([]*dist.ShardStepResult, len(runners))
		for s, r := range runners {
			results[s] = r.Step(round)
			body(kindStepResult, appendStepResult(nil, results[s]), results[s].Blocks)
		}
		for d, r := range runners {
			in := make([][]byte, len(runners))
			for s, res := range results {
				in[s] = res.Blocks[d]
			}
			body(kindDeliver, appendDeliver(nil, round, len(in)), in)
			maxInbox, err := r.Deliver(round, in)
			if err != nil {
				t.Fatal(err)
			}
			body(kindDeliverOK, appendDeliverOK(nil, maxInbox, ""), nil)
		}
	}
	for _, r := range runners {
		data, err := r.Outputs()
		if err != nil {
			t.Fatal(err)
		}
		body(kindOutputsData, appendOutputs(nil, "", len(data)), data)
	}
	body(kindOutputsData, appendOutputs(nil, "dist: shard output encoding failed", 0), nil)
	return bodies
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: every
// frame it accepts must re-frame to the bytes it was read from, and its
// body must not panic the decoder of its kind.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	bodies := realBodies(f)
	for _, kind := range []byte{kindStepResult, kindDeliver, kindDeliverOK, kindOutputsData} {
		for _, b := range bodies[kind] {
			frame := frameBytes(f, kind, b, nil)
			f.Add(frame)
			stream = append(stream, frame...)
		}
	}
	f.Add(stream)
	f.Add(frameBytes(f, kindStep, appendStep(nil, 3), nil))
	f.Add(frameBytes(f, kindShutdown, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		off := 0
		for {
			kind, body, size, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			if size != 5+len(body) || off+size > len(data) {
				t.Fatalf("frame of size %d with a %d-byte body at offset %d of %d", size, len(body), off, len(data))
			}
			if again := frameBytes(t, kind, body, nil); !bytes.Equal(again, data[off:off+size]) {
				t.Fatalf("frame at offset %d re-frames differently", off)
			}
			off += size
			switch kind {
			case kindStep:
				_, _ = decodeStep(body)
			case kindStepResult:
				_, _ = decodeStepResult(body)
			case kindDeliver:
				_, _, _ = decodeDeliver(body)
			case kindDeliverOK:
				_, _, _ = decodeDeliverOK(body)
			case kindOutputsData:
				_, _, _ = decodeOutputs(body)
			}
		}
	})
}

func FuzzDecodeStepResult(f *testing.F) {
	for _, b := range realBodies(f)[kindStepResult] {
		f.Add(b)
	}
	panicked := &dist.ShardStepResult{Round: 3, BlockedIdx: -1,
		Err: "dist: node program panicked: boom", ErrIdx: 17}
	f.Add(frameBytes(f, kindStepResult, appendStepResult(nil, panicked), nil)[5:])
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := decodeStepResult(body)
		if err != nil {
			return
		}
		again, err := decodeStepResult(frameBytes(t, kindStepResult, appendStepResult(nil, res), res.Blocks)[5:])
		if err != nil {
			t.Fatalf("re-encoded step result does not decode: %v", err)
		}
		if !sameStepResult(res, again) {
			t.Fatalf("step result %+v re-decodes as %+v", res, again)
		}
	})
}

func FuzzDecodeDeliver(f *testing.F) {
	for _, b := range realBodies(f)[kindDeliver] {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		round, blocks, err := decodeDeliver(body)
		if err != nil {
			return
		}
		round2, blocks2, err := decodeDeliver(frameBytes(t, kindDeliver, appendDeliver(nil, round, len(blocks)), blocks)[5:])
		if err != nil {
			t.Fatalf("re-encoded deliver does not decode: %v", err)
		}
		if round2 != round || !sameBlocks(blocks, blocks2) {
			t.Fatalf("deliver (%d, %q) re-decodes as (%d, %q)", round, blocks, round2, blocks2)
		}
	})
}

func FuzzDecodeOutputs(f *testing.F) {
	for _, b := range realBodies(f)[kindOutputsData] {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data, text, err := decodeOutputs(body)
		if err != nil {
			return
		}
		data2, text2, err := decodeOutputs(frameBytes(t, kindOutputsData, appendOutputs(nil, text, len(data)), data)[5:])
		if err != nil {
			t.Fatalf("re-encoded outputs do not decode: %v", err)
		}
		if text2 != text || !sameBlocks(data, data2) {
			t.Fatalf("outputs (%q, %q) re-decode as (%q, %q)", data, text, data2, text2)
		}
	})
}

// gobBody gob-encodes msg as a frame body.
func gobBody(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzHandshakeBodies feeds arbitrary hello, session and start bodies
// through their decode paths: the hello through the coordinator's
// readHello, the session and start through serveConn, the shard side,
// over net.Pipe. Nothing may panic, and the shard must answer each body
// it reads with its ack or stop with an error.
func FuzzHandshakeBodies(f *testing.F) {
	ix := graph.NewIndexed(gen.RandomChordal(12, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.5}, 5))
	ids, rowPtr, colIdx := ix.CSR()
	hello := gobBody(f, helloMsg{Shard: 1})
	session := gobBody(f, sessionMsg{IDs: ids, RowPtr: rowPtr, ColIdx: colIdx})
	start := gobBody(f, startMsg{Cfg: dist.ShardConfig{Ranges: dist.SplitRange(ix.NumNodes(), 2), Program: "wire-test-bcast"}})
	f.Add(hello, session, start)
	f.Add(hello, gobBody(f, sessionMsg{IDs: []graph.ID{1, 2}, RowPtr: []int32{0, 100, 5}, ColIdx: make([]int32, 5)}), start)
	f.Add([]byte("not gob"), session[:len(session)/2], start[:len(start)/2])
	f.Fuzz(func(t *testing.T, hello, session, start []byte) {
		a, b := net.Pipe()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_, _ = writeFrame(bufio.NewWriter(b), kindHello, hello, nil)
			b.Close()
		}()
		_, _ = newLink(a).readHello()
		a.Close()
		<-sent

		coord, host := net.Pipe()
		served := make(chan error, 1)
		go func() {
			err := serveConn(host, bufio.NewWriter(host))
			host.Close()
			served <- err
		}()
		l := newLink(coord)
		answered := func(kind, ack byte, body []byte) bool {
			if _, err := writeFrame(l.bw, kind, body, nil); err != nil {
				return false
			}
			var ok okMsg
			return l.recvGob(ack, &ok) == nil
		}
		both := answered(kindSession, kindSessionOK, session) && answered(kindStart, kindStartOK, start)
		if both {
			_, _ = writeFrame(l.bw, kindShutdown, nil, nil)
		}
		coord.Close()
		err := <-served
		if !both && err == nil {
			t.Fatalf("a body went unanswered, yet the shard stopped cleanly")
		}
		if both && err != nil {
			t.Fatalf("shard answered both bodies, then failed: %v", err)
		}
	})
}
