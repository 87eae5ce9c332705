package dist

import (
	"encoding/binary"
	"errors"
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
// and the params are the radius alone. A node's output is its member
// set, sent once at the end of the run.

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

// encodeKnowledge flattens a flood result to its member set: the
// count, then the members in ascending snapshot index as uvarint gaps,
// the first measured from 0. Everything else in a Knowledge is
// derivable from the snapshot, the params and the regime.
func encodeKnowledge(k *Knowledge) []byte {
	members := k.AppendMembers(make([]int32, 0, k.Size()))
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen32+2*len(members)), uint64(len(members)))
	prev := int32(0)
	for _, m := range members {
		out = binary.AppendUvarint(out, uint64(m-prev))
		prev = m
	}
	return out
}

// readUvarint reads one minimally encoded uvarint; its callers name the
// field in the error. A padded encoding (a zero final byte after a
// continuation) decodes to the value of a shorter one, so accepting it
// would break the byte round trip.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, nil, errors.New("truncated uvarint")
	case n < 0:
		return 0, nil, errors.New("uvarint overflows 64 bits")
	case n > 1 && b[n-1] == 0:
		return 0, nil, errors.New("uvarint is not minimally encoded")
	}
	return v, b[n:], nil
}

// decodeKnowledge rebuilds node center's flood result. bitmapRegime
// selects the membership structure the originating protocol would have
// used: the plain flood's dense bitmap at n ≤ seenBitmapMaxN, the
// sparse index set otherwise and for all retransmitted knowledge — so
// downstream index-space consumers take the same code paths as on a
// LOCAL run. It accepts exactly what encodeKnowledge writes for a set
// holding the center: a count of 1 to n, that many members ascending
// strictly within the snapshot, and no trailing bytes.
func decodeKnowledge(ix *graph.Indexed, center, radius int, bitmapRegime bool, data []byte) (*Knowledge, error) {
	count, data, err := readUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("dist: knowledge count: %w", err)
	}
	n := ix.NumNodes()
	if count < 1 || count > uint64(n) {
		return nil, fmt.Errorf("dist: knowledge holds %d members, want 1 to %d", count, n)
	}
	k := &Knowledge{Center: ix.IDOf(center), Radius: radius, size: int(count)}
	if bitmapRegime && n <= seenBitmapMaxN {
		k.seen = make([]uint64, (n+63)/64)
	} else {
		k.known.Reserve(int(count))
	}
	prev := uint64(0)
	for i := range int(count) {
		var gap uint64
		if gap, data, err = readUvarint(data); err != nil {
			return nil, fmt.Errorf("dist: knowledge member %d of %d: %w", i, count, err)
		}
		switch {
		case i > 0 && gap == 0:
			return nil, fmt.Errorf("dist: knowledge member %d does not ascend past index %d", i, prev)
		case gap >= uint64(n)-prev:
			return nil, fmt.Errorf("dist: knowledge member %d lies %d past index %d, out of range [0, %d)", i, gap, prev, n)
		}
		prev += gap
		if k.seen != nil {
			k.seen[prev>>6] |= 1 << (prev & 63)
		} else {
			k.known.Add(int32(prev))
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("dist: knowledge has %d trailing bytes after %d members", len(data), count)
	}
	if !k.KnownIdx(int32(center)) {
		return nil, fmt.Errorf("dist: knowledge of %d does not hold its center", center)
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
	// Retransmitted knowledge always uses the sparse index set (Output
	// shares the protocol's key table), regardless of n.
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
