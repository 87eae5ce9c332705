// Package wire is the out-of-process transport of the partitioned
// runtime: it hosts dist.ShardRunner ranges in child OS processes and
// exposes them to the coordinator as dist.ShardLinks over localhost
// TCP.
//
// The protocol is strictly request/response per link with a
// begin/await split (Step and Deliver broadcast to every shard before
// any result is awaited), so one batched frame crosses the wire per
// round per peer in each direction. Frames are length-prefixed: a
// 4-byte big-endian length covering a kind byte plus the body. Children
// dial the coordinator (with retry/backoff — the listener may come up
// after the child), announce their shard index, and serve until
// shutdown or disconnect.
//
// Frame bodies come in two encodings. The frames sent once per cluster,
// graph or run — hello, session and start, and the session and start
// acks — are gob-encoded. The per-round frames — step, stepResult,
// deliver and deliverOK — and the outputs reply have a hand-written
// binary layout: varint header fields, then the message blocks, each
// prefixed by its uvarint length. Blocks are written to the socket
// straight from the shard runner's buffers, and decoded blocks are
// sub-slices of the frame buffer, so the coordinator relays a block
// from one shard to another without decoding or copying it. The
// outputs request and shutdown frames have no body.
//
// Determinism is inherited, not re-established: the shard protocol
// transports dist's already-deterministic step/deliver sequence, so a
// partitioned run over this package is byte-identical to a LOCAL
// engine run (internal/dist's partition tests pin that property on the
// in-process transport; internal/core's cross-check suite pins it on
// this one).
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Frame kinds. Requests flow coordinator→shard, results shard→
// coordinator; hello is the one child-initiated frame.
const (
	kindHello byte = iota + 1
	kindSession
	kindSessionOK
	kindStart
	kindStartOK
	kindStep
	kindStepResult
	kindDeliver
	kindDeliverOK
	kindOutputs
	kindOutputsData
	kindShutdown
)

// maxFrame bounds a frame's length field: a malformed or corrupted
// header must fail loudly, not allocate gigabytes.
const maxFrame = 1 << 30

type helloMsg struct {
	Shard int
}

// sessionMsg ships a graph snapshot in CSR form; the shard rebuilds an
// identical graph.Indexed via graph.NewIndexedFromCSR (which validates
// the transfer). Re-sendable: multi-graph workloads push a new session
// before each graph's runs.
type sessionMsg struct {
	IDs    []graph.ID
	RowPtr []int32
	ColIdx []int32
}

// okMsg acknowledges session and start requests; a non-empty Err is the
// shard-side error verbatim.
type okMsg struct {
	Err string
}

type startMsg struct {
	Cfg dist.ShardConfig
}

// writeFrame writes one frame whose body is head followed by blocks,
// each prefixed by its uvarint length, then flushes and returns the
// bytes put on the wire. Blocks go to w straight from their slices;
// head carries the block count when the layout has blocks.
func writeFrame(w *bufio.Writer, kind byte, head []byte, blocks [][]byte) (int, error) {
	body := len(head)
	for _, b := range blocks {
		body += uvarintLen(len(b)) + len(b)
	}
	if body+1 > maxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", body+1, maxFrame)
	}
	var hdr [5 + binary.MaxVarintLen64]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(body+1))
	hdr[4] = kind
	if _, err := w.Write(hdr[:5]); err != nil {
		return 0, err
	}
	if _, err := w.Write(head); err != nil {
		return 0, err
	}
	for _, b := range blocks {
		if _, err := w.Write(binary.AppendUvarint(hdr[:0], uint64(len(b)))); err != nil {
			return 0, err
		}
		if _, err := w.Write(b); err != nil {
			return 0, err
		}
	}
	return 5 + body, w.Flush()
}

// writeGobFrame writes one frame with a gob-encoded body.
func writeGobFrame(w *bufio.Writer, kind byte, body any) (int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(body); err != nil {
		return 0, fmt.Errorf("wire: encoding frame kind %d: %w", kind, err)
	}
	return writeFrame(w, kind, buf.Bytes(), nil)
}

func uvarintLen(n int) int {
	var b [binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(b[:0], uint64(n)))
}

// readFrame reads one framed message into *buf, growing it as needed,
// and returns its kind, body, and on-wire size. The body aliases *buf,
// so it is valid until the buffer's next use. The buffer grows only by
// as much as has already arrived, so a corrupt length field cannot make
// the reader allocate more than about twice what the peer sent.
func readFrame(r *bufio.Reader, buf *[]byte) (kind byte, body []byte, size int, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 || n > maxFrame {
		return 0, nil, 0, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, maxFrame)
	}
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 1<<16)))
		}
		end := min(n, cap(b))
		_, err := io.ReadFull(r, b[len(b):end])
		b = b[:end]
		*buf = b
		if err != nil {
			return 0, nil, 0, fmt.Errorf("wire: truncated frame: %w", noEOF(err))
		}
	}
	return b[0], b[1:], 4 + n, nil
}

// noEOF reports a clean EOF inside a frame as the truncation it is.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeGob gob-decodes a frame body into msg.
func decodeGob(body []byte, msg any) error {
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(msg); err != nil {
		return fmt.Errorf("wire: decoding frame body: %w", err)
	}
	return nil
}

// Binary body layouts. Integers are varints (signed fields) or uvarints
// (lengths and counts); a string or block is a uvarint length followed
// by its bytes.
//
//	step        round
//	stepResult  Round Done DeadNotDone BlockedIdx BlockedRound Messages
//	            Volume Dropped Duplicated DeadLetters Stall, Err,
//	            block count, blocks (by destination shard)
//	deliver     round, block count, blocks (by source shard)
//	deliverOK   MaxInbox, Err
//	outputsData Err, output count, outputs (by local offset)

func appendStep(b []byte, round int) []byte {
	return binary.AppendVarint(b, int64(round))
}

func decodeStep(body []byte) (int, error) {
	d := decoder{b: body}
	round := d.int()
	return round, d.end()
}

// appendStepResult appends res's stepResult head; res.Blocks follow it
// on the wire.
func appendStepResult(b []byte, res *dist.ShardStepResult) []byte {
	for _, v := range [...]int{res.Round, res.Done, res.DeadNotDone, int(res.BlockedIdx), res.BlockedRound,
		res.Messages, res.Volume, res.Dropped, res.Duplicated, res.DeadLetters, res.Stall} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = appendString(b, res.Err)
	return binary.AppendUvarint(b, uint64(len(res.Blocks)))
}

func decodeStepResult(body []byte) (*dist.ShardStepResult, error) {
	d := decoder{b: body}
	res := &dist.ShardStepResult{Round: d.int(), Done: d.int(), DeadNotDone: d.int()}
	if idx := d.int(); idx < math.MinInt32 || idx > math.MaxInt32 {
		d.fail("blocked index out of range")
	} else {
		res.BlockedIdx = int32(idx)
	}
	res.BlockedRound = d.int()
	res.Messages, res.Volume = d.int(), d.int()
	res.Dropped, res.Duplicated, res.DeadLetters, res.Stall = d.int(), d.int(), d.int(), d.int()
	res.Err = d.string()
	res.Blocks = d.blocks()
	return res, d.end()
}

// appendDeliver appends a deliver head for nblocks blocks.
func appendDeliver(b []byte, round, nblocks int) []byte {
	b = binary.AppendVarint(b, int64(round))
	return binary.AppendUvarint(b, uint64(nblocks))
}

func decodeDeliver(body []byte) (round int, blocks [][]byte, err error) {
	d := decoder{b: body}
	round = d.int()
	blocks = d.blocks()
	return round, blocks, d.end()
}

func appendDeliverOK(b []byte, maxInbox int, errText string) []byte {
	b = binary.AppendVarint(b, int64(maxInbox))
	return appendString(b, errText)
}

func decodeDeliverOK(body []byte) (maxInbox int, errText string, err error) {
	d := decoder{b: body}
	maxInbox = d.int()
	errText = d.string()
	return maxInbox, errText, d.end()
}

// appendOutputs appends an outputsData head for n outputs.
func appendOutputs(b []byte, errText string, n int) []byte {
	b = appendString(b, errText)
	return binary.AppendUvarint(b, uint64(n))
}

func decodeOutputs(body []byte) (data [][]byte, errText string, err error) {
	d := decoder{b: body}
	errText = d.string()
	data = d.blocks()
	return data, errText, d.end()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder reads a binary body front to back. The first failure sticks:
// later reads return zero values, and end reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: decoding frame body: %s", what)
	}
	d.b = nil
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || v < math.MinInt || v > math.MaxInt {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// bytes reads a uvarint-length-prefixed byte string, aliasing the body.
func (d *decoder) bytes() []byte {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > uint64(len(d.b)-n) {
		d.fail("truncated byte string")
		return nil
	}
	out := d.b[n : n+int(v) : n+int(v)]
	d.b = d.b[n+int(v):]
	return out
}

func (d *decoder) string() string { return string(d.bytes()) }

// blocks reads a block count and that many byte strings.
func (d *decoder) blocks() [][]byte {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > uint64(len(d.b)-n) {
		d.fail("bad block count")
		return nil
	}
	d.b = d.b[n:]
	out := make([][]byte, v)
	for i := range out {
		out[i] = d.bytes()
	}
	return out
}

// end reports the first failure, or trailing bytes after the layout.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return d.err
}
