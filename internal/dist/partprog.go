package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
)

// This file holds the flood programs' codecs: what a partitioned run
// ships across the process boundary. Both floods disseminate records
// that are snapshot indices, in memory as on the wire: identity and
// adjacency come from the CSR snapshot every shard holds. So the
// payload codecs move the records' int32s unchanged, a decoded payload
// is bit-identical to the one the LOCAL engine would have delivered,
// and the params are the radius alone.

// radiusParams implements Params for both floods: the program name and
// the radius as one little-endian int32.
func radiusParams(name string, radius int) (string, []byte, error) {
	if radius < 0 || radius > math.MaxInt32 {
		return "", nil, fmt.Errorf("dist: flood radius %d does not fit the params codec", radius)
	}
	return name, appendI32(nil, int32(radius)), nil
}

// decodeRadius is the inverse of radiusParams' encoding. It rejects
// short input, trailing bytes and a negative radius.
func decodeRadius(params []byte) (int, error) {
	if len(params) != 4 {
		return 0, fmt.Errorf("dist: flood params have %d bytes, want 4", len(params))
	}
	r, _, _ := readI32(params)
	if r < 0 {
		return 0, fmt.Errorf("dist: flood params carry negative radius %d", r)
	}
	return int(r), nil
}

// appendI32 / readI32 are the payload codecs' primitive: fixed-width
// little-endian int32s, so every encoded size is a deterministic
// function of the record count.
func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func readI32(b []byte) (int32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("dist: truncated payload: %d trailing bytes", len(b))
	}
	return int32(binary.LittleEndian.Uint32(b)), b[4:], nil
}

// readIdx reads a record's snapshot index, rejecting one outside the
// snapshot.
func readIdx(ix *graph.Indexed, b []byte) (int32, []byte, error) {
	idx, rest, err := readI32(b)
	if err == nil && (idx < 0 || int(idx) >= ix.NumNodes()) {
		err = fmt.Errorf("dist: record index %d out of range [0, %d)", idx, ix.NumNodes())
	}
	return idx, rest, err
}

// encodeKnowledge flattens a flood result to (count, [idx, dist]...):
// everything else in a Knowledge is derivable from the snapshot and the
// record regime.
func encodeKnowledge(k *Knowledge) []byte {
	out := make([]byte, 0, 4+8*len(k.recs))
	out = appendI32(out, int32(len(k.recs)))
	for i, idx := range k.recs {
		out = appendI32(out, idx)
		out = appendI32(out, k.dist[i])
	}
	return out
}

// decodeKnowledge rebuilds node center's flood result. bitmapRegime
// selects the membership structure the originating protocol would have
// used: the plain flood's dense bitmap at n ≤ seenBitmapMaxN, the
// sparse index set otherwise and for all retransmitted knowledge — so
// downstream index-space consumers take the same code paths as on a
// LOCAL run. It accepts only what a flood can produce — the center
// first at distance 0, distinct in-range indices, distances
// nondecreasing and at most radius — because the knowledge's readers
// rely on that discovery order.
func decodeKnowledge(ix *graph.Indexed, center, radius int, bitmapRegime bool, data []byte) (*Knowledge, error) {
	count, data, err := readI32(data)
	if err != nil {
		return nil, err
	}
	if count < 1 || len(data) != int(count)*8 {
		return nil, fmt.Errorf("dist: knowledge record block has %d bytes for %d records", len(data), count)
	}
	n := ix.NumNodes()
	k := &Knowledge{
		Center: ix.IDOf(center),
		Radius: radius,
		recs:   make([]int32, 0, count),
		dist:   make([]int32, 0, count),
		snap:   ix,
	}
	if bitmapRegime && n <= seenBitmapMaxN {
		k.seen = make([]uint64, (n+63)/64)
	} else {
		k.known.Reserve(int(count))
	}
	last := int32(0)
	for i := range int(count) {
		var idx, dist int32
		idx, data, err = readIdx(ix, data)
		if err != nil {
			return nil, err
		}
		dist, data, err = readI32(data)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0 && (idx != int32(center) || dist != 0):
			return nil, fmt.Errorf("dist: knowledge of %d starts with record %d at distance %d", center, idx, dist)
		case dist < last || int(dist) > radius:
			return nil, fmt.Errorf("dist: knowledge record %d has distance %d after %d (radius %d)", i, dist, last, radius)
		}
		if k.seen != nil {
			w, b := idx>>6, uint64(1)<<(uint(idx)&63)
			if k.seen[w]&b != 0 {
				return nil, fmt.Errorf("dist: knowledge record %d repeats index %d", i, idx)
			}
			k.seen[w] |= b
		} else if !k.known.Add(idx) {
			return nil, fmt.Errorf("dist: knowledge record %d repeats index %d", i, idx)
		}
		k.recs = append(k.recs, idx)
		k.dist = append(k.dist, dist)
		last = dist
	}
	return k, nil
}

// Params implements Program.
func (f *floodProgram) Params() (string, []byte, error) { return radiusParams("flood", f.radius) }

func (f *floodProgram) EncodePayload(p any) ([]byte, error) {
	batch, ok := p.(*infoBatch)
	if !ok {
		return nil, fmt.Errorf("dist: flood payload is %T, want *infoBatch", p)
	}
	out := make([]byte, 0, 4*len(*batch))
	for _, idx := range *batch {
		out = appendI32(out, idx)
	}
	return out, nil
}

func (f *floodProgram) DecodePayload(data []byte) (any, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("dist: flood batch has %d bytes, not a multiple of 4", len(data))
	}
	batch := make(infoBatch, len(data)/4)
	for i := range batch {
		var err error
		if batch[i], data, err = readIdx(f.ix, data); err != nil {
			return nil, err
		}
	}
	return &batch, nil
}

func (f *floodProgram) EncodeOutput(i int, p Protocol) ([]byte, error) {
	fp, ok := p.(*floodProtocol)
	if !ok {
		return nil, fmt.Errorf("dist: flood protocol is %T", p)
	}
	return encodeKnowledge(fp.know), nil
}

func (f *floodProgram) DecodeOutput(i int, data []byte) (any, error) {
	return decodeKnowledge(f.ix, i, f.radius, true, data)
}

// Params implements Program.
func (f *retransProgram) Params() (string, []byte, error) { return radiusParams("retrans", f.radius) }

// Retrans payload wire format: a kind byte (0 = data batch, 1 = ack)
// followed by fixed-width int32 fields — (idx, hops) pairs for a batch,
// the index list then the hop list for an ack.
const (
	retransKindBatch = 0
	retransKindAck   = 1
)

func (f *retransProgram) EncodePayload(p any) ([]byte, error) {
	switch pl := p.(type) {
	case *retransBatch:
		out := make([]byte, 1, 1+8*len(pl.Recs))
		out[0] = retransKindBatch
		for i := range pl.Recs {
			out = appendI32(out, pl.Recs[i].Idx)
			out = appendI32(out, pl.Recs[i].Hops)
		}
		return out, nil
	case *retransAck:
		out := make([]byte, 1, 1+8*len(pl.Idxs))
		out[0] = retransKindAck
		for _, v := range pl.Idxs {
			out = appendI32(out, v)
		}
		for _, v := range pl.Hops {
			out = appendI32(out, v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("dist: retrans payload is %T, want *retransBatch or *retransAck", p)
	}
}

func (f *retransProgram) DecodePayload(data []byte) (any, error) {
	if len(data) < 1 || (len(data)-1)%8 != 0 {
		return nil, fmt.Errorf("dist: retrans payload has %d bytes, want 1+8k", len(data))
	}
	kind, body := data[0], data[1:]
	count := len(body) / 8
	switch kind {
	case retransKindBatch:
		batch := &retransBatch{Recs: make([]retransRec, count)}
		for i := range batch.Recs {
			r := &batch.Recs[i]
			var err error
			if r.Idx, body, err = readIdx(f.ix, body); err != nil {
				return nil, err
			}
			if r.Hops, body, err = readI32(body); err != nil {
				return nil, err
			}
		}
		return batch, nil
	case retransKindAck:
		ack := &retransAck{Idxs: make([]int32, count), Hops: make([]int32, count)}
		for i := range ack.Idxs {
			var err error
			if ack.Idxs[i], body, err = readIdx(f.ix, body); err != nil {
				return nil, err
			}
		}
		for i := range ack.Hops {
			var err error
			if ack.Hops[i], body, err = readI32(body); err != nil {
				return nil, err
			}
		}
		return ack, nil
	default:
		return nil, fmt.Errorf("dist: retrans payload kind %d unknown", kind)
	}
}

func (f *retransProgram) EncodeOutput(i int, p Protocol) ([]byte, error) {
	rp, ok := p.(*retransProtocol)
	if !ok {
		return nil, fmt.Errorf("dist: retrans protocol is %T", p)
	}
	return encodeKnowledge(rp.Output().(*Knowledge)), nil
}

func (f *retransProgram) DecodeOutput(i int, data []byte) (any, error) {
	// Retransmitted knowledge always uses the sparse index set (the
	// rebuild in Output does), regardless of n.
	return decodeKnowledge(f.ix, i, f.radius, false, data)
}

func init() {
	RegisterProgram("flood", func(ix *graph.Indexed, params []byte) (Program, error) {
		radius, err := decodeRadius(params)
		if err != nil {
			return nil, err
		}
		return newFloodProgram(ix, radius), nil
	})
	RegisterProgram("retrans", func(ix *graph.Indexed, params []byte) (Program, error) {
		radius, err := decodeRadius(params)
		if err != nil {
			return nil, err
		}
		return &retransProgram{ix: ix, radius: radius}, nil
	})
}
