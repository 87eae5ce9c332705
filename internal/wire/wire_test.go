package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMain makes the test binary a valid shard host: when re-executed
// with the spawn environment set (the cluster tests use SelfSpawn), the
// process serves its shard and exits before any test runs.
func TestMain(m *testing.M) {
	MaybeShardHost()
	os.Exit(m.Run())
}

// frameBytes writes one frame of head and blocks and returns it.
func frameBytes(t testing.TB, kind byte, head []byte, blocks [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	n, err := writeFrame(bw, kind, head, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("writeFrame reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// sameBlocks reports whether a and b hold the same byte strings.
func sameBlocks(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameStepResult(a, b *dist.ShardStepResult) bool {
	x, y := *a, *b
	x.Blocks, y.Blocks = nil, nil
	return reflect.DeepEqual(x, y) && sameBlocks(a.Blocks, b.Blocks)
}

// TestFrameRoundTrip writes one gob frame, every binary frame and a
// bodyless frame into one stream and reads them back: kinds, on-wire
// sizes and decoded bodies must survive.
func TestFrameRoundTrip(t *testing.T) {
	blocks := [][]byte{{1, 2, 3}, nil, bytes.Repeat([]byte{7}, 300)}
	res := &dist.ShardStepResult{Round: 4, Done: 9, DeadNotDone: 1, BlockedIdx: -1, BlockedRound: 2,
		Messages: 1 << 40, Volume: 77, Dropped: 3, Duplicated: 4, DeadLetters: 5, Stall: 6,
		Err: "boom", Blocks: blocks}
	var stream bytes.Buffer
	var sizes []int
	for _, f := range [][]byte{
		func() []byte {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if _, err := writeGobFrame(bw, kindHello, helloMsg{Shard: 3}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}(),
		frameBytes(t, kindStep, appendStep(nil, 7), nil),
		frameBytes(t, kindStepResult, appendStepResult(nil, res), res.Blocks),
		frameBytes(t, kindDeliver, appendDeliver(nil, 7, len(blocks)), blocks),
		frameBytes(t, kindDeliverOK, appendDeliverOK(nil, 12, "bad block"), nil),
		frameBytes(t, kindOutputsData, appendOutputs(nil, "", len(blocks)), blocks),
		frameBytes(t, kindShutdown, nil, nil),
	} {
		stream.Write(f)
		sizes = append(sizes, len(f))
	}
	if sizes[len(sizes)-1] != 5 {
		t.Fatalf("bodyless frame is %d bytes, want 5", sizes[len(sizes)-1])
	}
	br := bufio.NewReader(&stream)
	var buf []byte
	next := func(want byte, i int) []byte {
		t.Helper()
		kind, body, size, err := readFrame(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind != want || size != sizes[i] {
			t.Fatalf("frame %d: read (kind %d, %d bytes), want (kind %d, %d bytes)", i, kind, size, want, sizes[i])
		}
		return body
	}
	var hello helloMsg
	if err := decodeGob(next(kindHello, 0), &hello); err != nil || hello.Shard != 3 {
		t.Fatalf("hello %+v, %v", hello, err)
	}
	if round, err := decodeStep(next(kindStep, 1)); err != nil || round != 7 {
		t.Fatalf("step round %d, %v", round, err)
	}
	if got, err := decodeStepResult(next(kindStepResult, 2)); err != nil || !sameStepResult(got, res) {
		t.Fatalf("step result %+v, %v; want %+v", got, err, res)
	}
	if round, got, err := decodeDeliver(next(kindDeliver, 3)); err != nil || round != 7 || !sameBlocks(got, blocks) {
		t.Fatalf("deliver (%d, %v), %v", round, got, err)
	}
	if mi, text, err := decodeDeliverOK(next(kindDeliverOK, 4)); err != nil || mi != 12 || text != "bad block" {
		t.Fatalf("deliverOK (%d, %q), %v", mi, text, err)
	}
	if got, text, err := decodeOutputs(next(kindOutputsData, 5)); err != nil || text != "" || !sameBlocks(got, blocks) {
		t.Fatalf("outputs (%v, %q), %v", got, text, err)
	}
	if body := next(kindShutdown, 6); len(body) != 0 {
		t.Fatalf("shutdown frame has %d body bytes", len(body))
	}
	if _, _, _, err := readFrame(br, &buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read past the stream: %v", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, kindStep}
	var buf []byte
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), &buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// A stream that ends inside a frame is a truncation, not the clean EOF
// ServeConn treats as a shutdown; and a large announced length must not
// be allocated before the bytes arrive.
func TestReadFrameTruncatedIsNotEOF(t *testing.T) {
	for _, raw := range [][]byte{
		{0, 0, 0, 9},
		{0, 0, 0, 9, kindStep, 1},
		{0x3f, 0xff, 0xff, 0xff, kindDeliver, 1, 2, 3},
	} {
		var buf []byte
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), &buf)
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("% x: %v, want a truncation error", raw, err)
		}
		if cap(buf) > 1<<17 {
			t.Fatalf("% x: reader allocated %d bytes for a truncated frame", raw, cap(buf))
		}
	}
}

// servedPartition hosts parts shard ranges on goroutines behind real
// TCP connections: the full wire protocol without child processes, so
// failures are debuggable in one process. The cleanup joins every
// serve goroutine.
func servedPartition(t *testing.T, ix *graph.Indexed, parts int) (*dist.Partition, []*Link, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, parts)
	for s := 0; s < parts; s++ {
		go func(shard int) {
			conn, err := DialRetry(ln.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			bw := bufio.NewWriterSize(conn, 1<<16)
			if _, err := writeGobFrame(bw, kindHello, helloMsg{Shard: shard}); err != nil {
				done <- err
				return
			}
			done <- ServeConn(conn, bw)
		}(s)
	}
	links := make([]*Link, parts)
	for i := 0; i < parts; i++ {
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		l := newLink(conn)
		shard, err := l.readHello()
		if err != nil {
			t.Fatal(err)
		}
		l.shard = shard
		links[shard] = l
	}
	ln.Close()
	ids, rowPtr, colIdx := ix.CSR()
	for _, l := range links {
		if err := l.beginSession(ids, rowPtr, colIdx); err != nil {
			t.Fatal(err)
		}
	}
	p := &dist.Partition{Ranges: dist.SplitRange(ix.NumNodes(), parts)}
	for _, l := range links {
		if err := l.awaitSession(); err != nil {
			t.Fatal(err)
		}
		p.Links = append(p.Links, l)
	}
	cleanup := func() {
		for _, l := range links {
			l.Close()
		}
		for i := 0; i < parts; i++ {
			if err := <-done; err != nil {
				t.Errorf("serve goroutine: %v", err)
			}
		}
	}
	return p, links, cleanup
}

// checkSameKnowledge compares two balls through the exported Knowledge
// API (the dist package's own partition tests pin field-level
// equality; here the wire transport must preserve it).
func checkSameKnowledge(t *testing.T, at string, n int, a, b *dist.Knowledge) {
	t.Helper()
	if a.Center != b.Center || a.Radius != b.Radius || a.RecordCount() != b.RecordCount() {
		t.Fatalf("%s: knowledge header (%d, %d, %d) != (%d, %d, %d)", at,
			a.Center, a.Radius, a.RecordCount(), b.Center, b.Radius, b.RecordCount())
	}
	for i := 0; i < a.RecordCount(); i++ {
		ai, ad, _ := a.RecordAt(i)
		bi, bd, _ := b.RecordAt(i)
		if ai != bi || ad != bd {
			t.Fatalf("%s: record %d (idx %d dist %d) != (idx %d dist %d)", at, i, ai, ad, bi, bd)
		}
	}
	for i := int32(0); int(i) < n; i++ {
		if a.KnownIdx(i) != b.KnownIdx(i) {
			t.Fatalf("%s: KnownIdx(%d) diverges", at, i)
		}
	}
	if a.CoversComponent() != b.CoversComponent() {
		t.Fatalf("%s: CoversComponent diverges", at)
	}
}

// wireRecorder captures round stats plus the WireRound extension.
type wireRecorder struct {
	rounds []dist.RoundStats
	wire   [][3]int64
}

func (o *wireRecorder) RunStart(nodes, edges int)    {}
func (o *wireRecorder) RoundStart(round, shards int) {}
func (o *wireRecorder) ShardStart(shard int)         {}
func (o *wireRecorder) ShardEnd(shard int)           {}
func (o *wireRecorder) RoundEnd(s dist.RoundStats)   { o.rounds = append(o.rounds, s) }
func (o *wireRecorder) RunEnd(rounds int)            {}
func (o *wireRecorder) WireRound(round int, in, out int64) {
	o.wire = append(o.wire, [3]int64{int64(round), in, out})
}

func TestServedLinksMatchLocal(t *testing.T) {
	g := gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7)
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()
	notes := make([]any, n)
	for i := range notes {
		if i%2 == 0 {
			notes[i] = i
		}
	}
	for _, spec := range []string{"", "drop=0.1,dup=0.2,delay=1"} {
		var lf, pf *dist.Faults
		var err error
		if spec != "" {
			if lf, err = dist.ParseFaults(spec, 5); err != nil {
				t.Fatal(err)
			}
			if pf, err = dist.ParseFaults(spec, 5); err != nil {
				t.Fatal(err)
			}
		}
		lKs, lRes, err := dist.CollectBallsByIndex(ix, 3, notes, nil, lf)
		if err != nil {
			t.Fatalf("%q: local: %v", spec, err)
		}
		part, links, cleanup := servedPartition(t, ix, 3)
		obs := &wireRecorder{}
		pKs, pRes, err := dist.CollectBallsByIndexPart(part, ix, 3, notes, obs, pf)
		if err != nil {
			t.Fatalf("%q: wire: %v", spec, err)
		}
		if lRes.Rounds != pRes.Rounds || lRes.Messages != pRes.Messages || lRes.Volume != pRes.Volume ||
			lRes.Dropped != pRes.Dropped || lRes.Duplicated != pRes.Duplicated || lRes.Stall != pRes.Stall {
			t.Fatalf("%q: results diverge: local %+v wire %+v", spec, lRes, pRes)
		}
		for i := range lKs {
			checkSameKnowledge(t, fmt.Sprintf("%q idx %d", spec, i), n, lKs[i], pKs[i])
		}
		if len(obs.wire) != len(obs.rounds) {
			t.Fatalf("%q: %d WireRound calls for %d rounds", spec, len(obs.wire), len(obs.rounds))
		}
		for _, w := range obs.wire {
			if w[1] <= 0 || w[2] <= 0 {
				t.Fatalf("%q: round %d moved (%d in, %d out) bytes on the wire", spec, w[0], w[1], w[2])
			}
		}
		for _, l := range links {
			in, out := l.WireBytes()
			if in <= 0 || out <= 0 {
				t.Fatalf("%q: shard %d meter (%d, %d)", spec, l.Shard(), in, out)
			}
		}
		cleanup()
	}
}

func TestClusterProcessesMatchLocal(t *testing.T) {
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
	// Two graphs through the same cluster: sessions are re-sendable.
	graphs := []*graph.Graph{
		gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3),
		gen.Path(25),
	}
	for gi, g := range graphs {
		ix := graph.NewIndexed(g)
		n := ix.NumNodes()
		for _, spec := range []string{"", "drop=0.15,dup=0.1"} {
			var lf, pf *dist.Faults
			if spec != "" {
				if lf, err = dist.ParseFaults(spec, 11); err != nil {
					t.Fatal(err)
				}
				if pf, err = dist.ParseFaults(spec, 11); err != nil {
					t.Fatal(err)
				}
			}
			lKs, lRes, err := dist.CollectBallsByIndex(ix, 2, nil, nil, lf)
			if err != nil {
				t.Fatalf("graph %d %q: local: %v", gi, spec, err)
			}
			part, err := cl.Partition(ix)
			if err != nil {
				t.Fatalf("graph %d %q: partition: %v", gi, spec, err)
			}
			pKs, pRes, err := dist.CollectBallsByIndexPart(part, ix, 2, nil, nil, pf)
			if err != nil {
				t.Fatalf("graph %d %q: cluster: %v", gi, spec, err)
			}
			if lRes.Rounds != pRes.Rounds || lRes.Messages != pRes.Messages || lRes.Volume != pRes.Volume ||
				lRes.Dropped != pRes.Dropped || lRes.Duplicated != pRes.Duplicated {
				t.Fatalf("graph %d %q: results diverge: local %+v cluster %+v", gi, spec, lRes, pRes)
			}
			for i := range lKs {
				checkSameKnowledge(t, fmt.Sprintf("graph %d %q idx %d", gi, spec, i), n, lKs[i], pKs[i])
			}
		}
	}
}

func TestDialRetryWaitsForListener(t *testing.T) {
	// Reserve an address, close it, and bring the listener up only
	// after a delay: DialRetry must ride its backoff schedule through
	// the gap.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	accepted := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			accepted <- err
			return
		}
		defer ln2.Close()
		conn, err := ln2.Accept()
		if err == nil {
			conn.Close()
		}
		accepted <- err
	}()
	conn, err := DialRetry(addr)
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	conn.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("delayed listener: %v", err)
	}
}
