package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// This file holds the correction program's codecs: what a partitioned
// run ships across the process boundary. The choreography's shared
// state (corrShared plus the per-node parent/group tables) travels as
// the program's params. Payloads are value types (finalMsg /
// setColorMsg) with no Sizer, matching the LOCAL engine's unit volume
// accounting; the codec preserves the concrete types so the protocol's
// type switch behaves identically on both sides of the wire.

// corrGroupWire / corrParamsWire are the gob form of a correctionProgram.
type corrGroupWire struct {
	Layer            int32
	KidOff, KidEnd   int32
	GateOff, GateEnd int32
}

type corrParamsWire struct {
	Groups    []corrGroupWire
	KidIdx    []int32
	KidColor  []int
	Gates     []int32
	HasParent []bool
	NodeGOff  []int32
	TTL       int
}

// Params implements dist.Program.
func (p *correctionProgram) Params() (string, []byte, error) {
	w := corrParamsWire{
		Groups:    make([]corrGroupWire, len(p.sh.groups)),
		KidIdx:    p.sh.kidIdx,
		KidColor:  p.sh.kidColor,
		Gates:     p.sh.gates,
		HasParent: p.hasParent,
		NodeGOff:  p.nodeGOff,
		TTL:       p.ttl,
	}
	for i, g := range p.sh.groups {
		w.Groups[i] = corrGroupWire{Layer: g.layer, KidOff: g.kidOff, KidEnd: g.kidEnd, GateOff: g.gateOff, GateEnd: g.gateEnd}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return "", nil, fmt.Errorf("correction: encoding params: %w", err)
	}
	return "correction", buf.Bytes(), nil
}

func newCorrectionProgram(ix *graph.Indexed, params []byte) (dist.Program, error) {
	var w corrParamsWire
	if err := gob.NewDecoder(bytes.NewReader(params)).Decode(&w); err != nil {
		return nil, fmt.Errorf("correction: decoding params: %w", err)
	}
	if err := w.validate(ix.NumNodes()); err != nil {
		return nil, err
	}
	sh := &corrShared{
		groups:   make([]corrGroup, len(w.Groups)),
		kidIdx:   w.KidIdx,
		kidColor: w.KidColor,
		gates:    w.Gates,
	}
	for i, g := range w.Groups {
		sh.groups[i] = corrGroup{layer: g.Layer, kidOff: g.KidOff, kidEnd: g.KidEnd, gateOff: g.GateOff, gateEnd: g.GateEnd}
	}
	return &correctionProgram{sh: sh, hasParent: w.HasParent, nodeGOff: w.NodeGOff, ttl: w.TTL}, nil
}

// validate checks decoded params against an n-node snapshot, so that
// a malformed blob fails here instead of as a node-program panic
// mid-run: every slab range and index the choreography will read must
// be in bounds.
func (w *corrParamsWire) validate(n int) error {
	if len(w.HasParent) != n || len(w.NodeGOff) != n+1 {
		return fmt.Errorf("correction: params describe %d/%d nodes, snapshot has %d",
			len(w.HasParent), len(w.NodeGOff), n)
	}
	if len(w.KidIdx) != len(w.KidColor) {
		return fmt.Errorf("correction: %d children but %d child colors", len(w.KidIdx), len(w.KidColor))
	}
	if w.TTL < 0 {
		return fmt.Errorf("correction: negative TTL %d", w.TTL)
	}
	for i, off := range w.NodeGOff {
		if off < 0 || int(off) > len(w.Groups) || (i > 0 && off < w.NodeGOff[i-1]) {
			return fmt.Errorf("correction: node group offset %d is %d, want nondecreasing within [0, %d]", i, off, len(w.Groups))
		}
	}
	for i, g := range w.Groups {
		if g.KidOff < 0 || g.KidOff > g.KidEnd || int(g.KidEnd) > len(w.KidIdx) ||
			g.GateOff < 0 || g.GateOff > g.GateEnd || int(g.GateEnd) > len(w.Gates) {
			return fmt.Errorf("correction: group %d has kid range [%d, %d) of %d and gate range [%d, %d) of %d",
				i, g.KidOff, g.KidEnd, len(w.KidIdx), g.GateOff, g.GateEnd, len(w.Gates))
		}
	}
	for _, slab := range [][]int32{w.KidIdx, w.Gates} {
		for _, v := range slab {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("correction: node index %d out of range [0, %d)", v, n)
			}
		}
	}
	return nil
}

// Payload wire format: a kind byte, then fixed-width little-endian
// int32 fields.
const (
	corrKindFinal    = 0
	corrKindSetColor = 1
)

func corrI32(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func (p *correctionProgram) EncodePayload(pl any) ([]byte, error) {
	switch m := pl.(type) {
	case finalMsg:
		out := make([]byte, 1, 9)
		out[0] = corrKindFinal
		out = corrI32(out, m.Origin)
		out = corrI32(out, m.Expire)
		return out, nil
	case setColorMsg:
		out := make([]byte, 1, 13)
		out[0] = corrKindSetColor
		out = corrI32(out, m.Target)
		out = corrI32(out, int32(m.Color))
		out = corrI32(out, m.Expire)
		return out, nil
	default:
		return nil, fmt.Errorf("correction: payload is %T, want finalMsg or setColorMsg", pl)
	}
}

func (p *correctionProgram) DecodePayload(data []byte) (any, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("correction: empty payload")
	}
	kind, body := data[0], data[1:]
	i32 := func(off int) int32 { return int32(binary.LittleEndian.Uint32(body[off:])) }
	switch kind {
	case corrKindFinal:
		if len(body) != 8 {
			return nil, fmt.Errorf("correction: final payload has %d bytes, want 8", len(body))
		}
		return finalMsg{Origin: i32(0), Expire: i32(4)}, nil
	case corrKindSetColor:
		if len(body) != 12 {
			return nil, fmt.Errorf("correction: setcolor payload has %d bytes, want 12", len(body))
		}
		return setColorMsg{Target: i32(0), Color: int(i32(4)), Expire: i32(8)}, nil
	default:
		return nil, fmt.Errorf("correction: payload kind %d unknown", kind)
	}
}

func (p *correctionProgram) EncodeOutput(i int, proto dist.Protocol) ([]byte, error) {
	node, ok := proto.(*correctionNode)
	if !ok {
		return nil, fmt.Errorf("correction: protocol is %T", proto)
	}
	if node.Output().(bool) {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (p *correctionProgram) DecodeOutput(i int, data []byte) (any, error) {
	if len(data) != 1 {
		return nil, fmt.Errorf("correction: output has %d bytes, want 1", len(data))
	}
	return data[0] != 0, nil
}

func init() {
	dist.RegisterProgram("correction", newCorrectionProgram)
}
