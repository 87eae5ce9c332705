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
		groups: make([]corrGroup, len(w.Groups)),
		kidIdx: w.KidIdx,
		gates:  w.Gates,
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

// Payload wire format: both kinds are 9 bytes, a kind byte and then
// two little-endian int32s, the node index (Origin or Target) and the
// expiry step.
const (
	corrKindFinal    = 0
	corrKindSetColor = 1
)

func (p *correctionProgram) EncodePayload(pl any) ([]byte, error) {
	var kind byte
	var idx, expire int32
	switch m := pl.(type) {
	case finalMsg:
		kind, idx, expire = corrKindFinal, m.Origin, m.Expire
	case setColorMsg:
		kind, idx, expire = corrKindSetColor, m.Target, m.Expire
	default:
		return nil, fmt.Errorf("correction: payload is %T, want finalMsg or setColorMsg", pl)
	}
	out := make([]byte, 1, 9)
	out[0] = kind
	out = binary.LittleEndian.AppendUint32(out, uint32(idx))
	return binary.LittleEndian.AppendUint32(out, uint32(expire)), nil
}

func (p *correctionProgram) DecodePayload(data []byte) (any, error) {
	if len(data) != 9 {
		return nil, fmt.Errorf("correction: payload has %d bytes, want 9", len(data))
	}
	idx := int32(binary.LittleEndian.Uint32(data[1:]))
	expire := int32(binary.LittleEndian.Uint32(data[5:]))
	switch data[0] {
	case corrKindFinal:
		return finalMsg{Origin: idx, Expire: expire}, nil
	case corrKindSetColor:
		return setColorMsg{Target: idx, Expire: expire}, nil
	default:
		return nil, fmt.Errorf("correction: payload kind %d unknown", data[0])
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
