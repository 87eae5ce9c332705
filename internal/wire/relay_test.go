package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// bcastProgram is a one-round test program: every node broadcasts its
// snapshot index at Init and outputs how many messages it received in
// round 1. With failDecode set, every payload fails to decode on the
// receiving shard.
type bcastProgram struct{ failDecode bool }

type bcastNode struct {
	idx  int
	got  int
	done bool
}

func (p *bcastNode) Init(ctx *dist.Context) { ctx.Broadcast(int32(p.idx)) }
func (p *bcastNode) Round(ctx *dist.Context, inbox []dist.Message) {
	p.got += len(inbox)
	p.done = true
}
func (p *bcastNode) Done() bool  { return p.done }
func (p *bcastNode) Output() any { return p.got }

func (b *bcastProgram) NewNode(i int) dist.Protocol { return &bcastNode{idx: i} }

func (b *bcastProgram) EncodePayload(p any) ([]byte, error) {
	return binary.AppendVarint(nil, int64(p.(int32))), nil
}

func (b *bcastProgram) DecodePayload(data []byte) (any, error) {
	v, n := binary.Varint(data)
	if b.failDecode || n != len(data) {
		return nil, errors.New("bcast payload rejected")
	}
	return int32(v), nil
}

func (b *bcastProgram) EncodeOutput(i int, p dist.Protocol) ([]byte, error) {
	return binary.AppendUvarint(nil, uint64(p.Output().(int))), nil
}

func (b *bcastProgram) DecodeOutput(i int, data []byte) (any, error) {
	v, n := binary.Uvarint(data)
	if n != len(data) {
		return nil, fmt.Errorf("bcast output of %d bytes", len(data))
	}
	return int(v), nil
}

func init() {
	dist.RegisterProgram("wire-test-bcast", func(*graph.Indexed, []byte) (dist.Program, error) {
		return &bcastProgram{}, nil
	})
	dist.RegisterProgram("wire-test-faildecode", func(*graph.Indexed, []byte) (dist.Program, error) {
		return &bcastProgram{failDecode: true}, nil
	})
}

// TestFailedDeliverKeepsLinksInSync: when every shard rejects its
// deliveries, the coordinator must await every shard's reply before it
// returns the lowest shard's error, so the next run on the same links
// reads its own replies and matches LOCAL.
func TestFailedDeliverKeepsLinksInSync(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 5)
	ix := graph.NewIndexed(g)
	part, _, cleanup := servedPartition(t, ix, 2)
	defer cleanup()
	c, err := dist.NewCoordinator(ix, part, "wire-test-faildecode", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(3); err == nil || !strings.Contains(err.Error(), "bcast payload rejected") {
		t.Fatalf("run with failing decodes: %v", err)
	}
	want, wantRes, err := dist.CollectBallsByIndex(ix, 2, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, gotRes, err := dist.CollectBallsByIndexPart(part, ix, 2, nil, nil, nil)
	if err != nil {
		t.Fatalf("flood after a failed run: %v", err)
	}
	if gotRes.Rounds != wantRes.Rounds || gotRes.Messages != wantRes.Messages || gotRes.Volume != wantRes.Volume {
		t.Fatalf("flood after a failed run: %+v, want %+v", gotRes, wantRes)
	}
	for i := range want {
		checkSameKnowledge(t, fmt.Sprintf("idx %d", i), ix.NumNodes(), want[i], got[i])
	}
}

// TestServedBroadcastCounts runs the test program over real links: each
// node must hear from every neighbor, whichever shard hosts it.
func TestServedBroadcastCounts(t *testing.T) {
	ix := graph.NewIndexed(gen.RandomChordal(50, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 9))
	part, _, cleanup := servedPartition(t, ix, 3)
	defer cleanup()
	c, err := dist.NewCoordinator(ix, part, "wire-test-bcast", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	for i, out := range c.OutputsByIndex() {
		if out.(int) != ix.Degree(i) {
			t.Fatalf("node %d heard %d messages, has %d neighbors", i, out, ix.Degree(i))
		}
	}
}
