package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/graph"
)

// This file adapts the flooding protocols to the partitioned runtime.
// Both flood variants disseminate records that are snapshot indices, in
// memory as on the wire: identity and adjacency come from the CSR
// snapshot every shard holds, and annotations from the per-run note
// table shipped in the program parameters. So the payload codecs move
// the records' int32s unchanged, and a decoded payload is bit-identical
// to the one the LOCAL engine would have delivered.

// floodNotes is the wire form of a flood note table. Prune annotations
// are iteration numbers, so the codec supports exactly nil-or-int
// notes; richer annotations would silently diverge between LOCAL and
// partitioned runs and are rejected loudly instead.
type floodNotes struct {
	Set []bool
	Val []int64
}

type floodParamsWire struct {
	Radius int
	Budget int // retrans only: engine round budget
	Notes  floodNotes
}

func encodeNotes(n int, notes []any) (floodNotes, error) {
	var fn floodNotes
	if notes == nil {
		return fn, nil
	}
	if len(notes) != n {
		return fn, fmt.Errorf("dist: note table has %d entries for %d nodes", len(notes), n)
	}
	fn.Set = make([]bool, n)
	fn.Val = make([]int64, n)
	for i, v := range notes {
		if v == nil {
			continue
		}
		iv, ok := v.(int)
		if !ok {
			return fn, fmt.Errorf("dist: note %d is %T; partitioned floods carry nil-or-int notes only", i, v)
		}
		fn.Set[i] = true
		fn.Val[i] = int64(iv)
	}
	return fn, nil
}

func (fn *floodNotes) table(n int) ([]any, error) {
	if fn.Set == nil {
		return nil, nil
	}
	if len(fn.Set) != n || len(fn.Val) != n {
		return nil, fmt.Errorf("dist: note table has %d/%d entries for %d nodes", len(fn.Set), len(fn.Val), n)
	}
	notes := make([]any, n)
	for i, set := range fn.Set {
		if set {
			notes[i] = int(fn.Val[i])
		}
	}
	return notes, nil
}

func encodeFloodParams(n, radius, budget int, notes []any) ([]byte, error) {
	fn, err := encodeNotes(n, notes)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(floodParamsWire{Radius: radius, Budget: budget, Notes: fn}); err != nil {
		return nil, fmt.Errorf("dist: encoding flood params: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeFloodParams(ix *graph.Indexed, params []byte) (radius, budget int, notes []any, err error) {
	var w floodParamsWire
	if err := gob.NewDecoder(bytes.NewReader(params)).Decode(&w); err != nil {
		return 0, 0, nil, fmt.Errorf("dist: decoding flood params: %w", err)
	}
	notes, err = w.Notes.table(ix.NumNodes())
	if err != nil {
		return 0, 0, nil, err
	}
	return w.Radius, w.Budget, notes, nil
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

// encodeKnowledge flattens a flood result to (maxDist, [idx, dist]...):
// everything else in a Knowledge is derivable from the snapshot, the
// note table, and the record regime.
func encodeKnowledge(k *Knowledge) []byte {
	out := make([]byte, 0, 8+8*len(k.recs))
	out = appendI32(out, int32(k.maxDist))
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
// nondecreasing and at most radius, maxDist the last record's distance
// — because the ball decoders downstream rely on that discovery order.
func decodeKnowledge(ix *graph.Indexed, notes []any, center, radius int, bitmapRegime bool, data []byte) (*Knowledge, error) {
	maxDist, data, err := readI32(data)
	if err != nil {
		return nil, err
	}
	count, data, err := readI32(data)
	if err != nil {
		return nil, err
	}
	if count < 1 || len(data) != int(count)*8 {
		return nil, fmt.Errorf("dist: knowledge record block has %d bytes for %d records", len(data), count)
	}
	n := ix.NumNodes()
	k := &Knowledge{
		Center:  ix.IDOf(center),
		Radius:  radius,
		recs:    make([]int32, 0, count),
		dist:    make([]int32, 0, count),
		snap:    ix,
		notes:   notes,
		maxDist: int(maxDist),
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
	if maxDist != last {
		return nil, fmt.Errorf("dist: knowledge header maxDist %d, last record at distance %d", maxDist, last)
	}
	return k, nil
}

// floodProgram runs the incremental flood (flood.go) under the
// partitioned runtime.
type floodProgram struct {
	ix     *graph.Indexed
	radius int
	notes  []any
	avgDeg int
}

func newFloodProgram(ix *graph.Indexed, params []byte) (Program, error) {
	radius, _, notes, err := decodeFloodParams(ix, params)
	if err != nil {
		return nil, err
	}
	avgDeg := 0
	if n := ix.NumNodes(); n > 0 {
		avgDeg = 2 * ix.NumEdges() / n
	}
	return &floodProgram{ix: ix, radius: radius, notes: notes, avgDeg: avgDeg}, nil
}

func (f *floodProgram) NewNode(i int) Protocol {
	n := f.ix.NumNodes()
	hint := ballSizeHint(f.ix.Degree(i), f.avgDeg, f.radius, n)
	return newFloodProtocol(f.ix.IDOf(i), i, f.ix, f.notes, f.radius, hint)
}

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
	return decodeKnowledge(f.ix, f.notes, i, f.radius, true, data)
}

// retransProgram runs the retransmitting flood (retrans.go) under the
// partitioned runtime.
type retransProgram struct {
	ix     *graph.Indexed
	radius int
	notes  []any
}

func newRetransProgram(ix *graph.Indexed, params []byte) (Program, error) {
	radius, _, notes, err := decodeFloodParams(ix, params)
	if err != nil {
		return nil, err
	}
	return &retransProgram{ix: ix, radius: radius, notes: notes}, nil
}

func (f *retransProgram) NewNode(i int) Protocol {
	return newRetransProtocol(f.ix.IDOf(i), i, f.ix, f.notes, f.radius)
}

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
	return decodeKnowledge(f.ix, f.notes, i, f.radius, false, data)
}

func init() {
	RegisterProgram("flood", newFloodProgram)
	RegisterProgram("retrans", newRetransProgram)
}

// CollectBallsByIndexPart is CollectBallsByIndex executed on a
// partition: the same flood, the same observer stream, the same fault
// semantics, with the shards doing the work. notes must be nil-or-int
// per entry (see floodNotes).
func CollectBallsByIndexPart(p *Partition, ix *graph.Indexed, radius int, notes []any, o RoundObserver, f *Faults) ([]*Knowledge, *Result, error) {
	params, err := encodeFloodParams(ix.NumNodes(), radius, 0, notes)
	if err != nil {
		return nil, nil, err
	}
	c, err := NewCoordinator(ix, p, "flood", params)
	if err != nil {
		return nil, nil, err
	}
	c.Observer = o
	c.Faults = f
	c.SkipOutputs = true
	res, err := c.Run(radius + 1)
	if err != nil {
		return nil, nil, fmt.Errorf("flooding: %w", err)
	}
	return knowledgeByIndex(c), res, nil
}

// CollectBallsRetransPart is the retransmitting flood executed on a
// partition, by snapshot index.
func CollectBallsRetransPart(p *Partition, ix *graph.Indexed, radius, budget int, notes []any, o RoundObserver, f *Faults) ([]*Knowledge, *Result, error) {
	params, err := encodeFloodParams(ix.NumNodes(), radius, budget, notes)
	if err != nil {
		return nil, nil, err
	}
	c, err := NewCoordinator(ix, p, "retrans", params)
	if err != nil {
		return nil, nil, err
	}
	c.Observer = o
	c.Faults = f
	c.SkipOutputs = true
	res, err := c.Run(budget)
	if err != nil {
		return nil, nil, fmt.Errorf("retransmitting flood: %w", err)
	}
	return knowledgeByIndex(c), res, nil
}

func knowledgeByIndex(c *Coordinator) []*Knowledge {
	outs := c.OutputsByIndex()
	ks := make([]*Knowledge, len(outs))
	for i, o := range outs {
		ks[i] = o.(*Knowledge)
	}
	return ks
}
