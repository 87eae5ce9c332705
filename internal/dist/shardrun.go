package dist

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// ShardRunner hosts one contiguous node range of a partitioned run. It
// executes the range step by step under the coordinator's direction
// through the same kernel as the LOCAL engine — one nodeRange stepped on
// the calling goroutine (a shard host is single-threaded), the shared
// crash table, and the shared routing walk, whose sink stages
// local-destination copies and writes remote ones into per-destination
// blocks (see the block format in partition.go).
type ShardRunner struct {
	ix     *graph.Indexed
	shard  int
	ranges []PartRange
	lo, hi int32
	prog   Program

	nodes    nodeRange
	curRound int32
	faults   *Faults
	crash    crashTable

	inbox  [][]Message // by local offset; the current round's inboxes
	staged [][]Message // by local offset; local-destination copies of the step
	blocks [][]byte    // by destination shard; the step's remote-bound blocks
	pend   [][]int32   // by destination shard; the open entry's targets there
	tgt    []int32     // Deliver's per-entry target scratch

	stepped bool // a step ran since the last Deliver (barrier misuse guard)
}

// NewShardRunner builds a runner for shard cfg.Shard of the partition
// cfg.Ranges of ix. The fault schedule is re-parsed locally from
// (FaultSpec, FaultSeed) — it is a pure function of the pair, so every
// shard and the coordinator decide identically without shipping
// schedule state.
func NewShardRunner(ix *graph.Indexed, cfg ShardConfig) (*ShardRunner, error) {
	if err := checkRanges(cfg.Ranges, ix.NumNodes()); err != nil {
		return nil, err
	}
	if cfg.Shard < 0 || cfg.Shard >= len(cfg.Ranges) {
		return nil, fmt.Errorf("dist: shard %d of a %d-shard partition", cfg.Shard, len(cfg.Ranges))
	}
	prog, err := NewProgram(cfg.Program, ix, cfg.Params)
	if err != nil {
		return nil, err
	}
	rg := cfg.Ranges[cfg.Shard]
	r := &ShardRunner{ix: ix, shard: cfg.Shard, ranges: cfg.Ranges, lo: rg.Lo, hi: rg.Hi, prog: prog}
	if cfg.FaultSpec != "" {
		if r.faults, err = ParseFaults(cfg.FaultSpec, cfg.FaultSeed); err != nil {
			return nil, err
		}
	}
	if r.crash, err = newCrashTable(ix, r.faults); err != nil {
		return nil, err
	}
	local := int(rg.Hi - rg.Lo)
	progs := make([]Protocol, local)
	for j := range progs {
		progs[j] = prog.NewNode(int(rg.Lo) + j)
	}
	r.nodes = newNodeRange(ix, int(rg.Lo), progs, make([]Context, local), make([]bool, local), &r.curRound)
	r.inbox = make([][]Message, local)
	r.staged = make([][]Message, local)
	r.blocks = make([][]byte, len(cfg.Ranges))
	r.pend = make([][]int32, len(cfg.Ranges))
	return r, nil
}

// Step executes step round (0 = Init) on every live local node and
// routes the outboxes: local-destination copies are staged for the
// coming Deliver, remote copies are returned as one block per
// destination shard. All delivery accounting — including drops,
// duplicates, dead letters, and stall — is charged here, sender-side,
// so the coordinator's sums equal the LOCAL engine's counters field for
// field.
func (r *ShardRunner) Step(round int) *ShardStepResult {
	r.curRound = int32(round)
	r.stepped = true
	r.crash.mark(round)
	res := &ShardStepResult{Round: round, BlockedIdx: -1}
	r.nodes.step(round, r.inbox, r.crash.dead)
	if r.nodes.err != nil {
		res.Err = r.nodes.err.Error()
		return res
	}
	r.route(round, res)
	res.Done = r.nodes.doneCount
	res.DeadNotDone, res.BlockedIdx, res.BlockedRound = r.crash.blocked(r.nodes.ctxs, r.nodes.done)
	return res
}

// route runs the shared routing walk over the range's outboxes with a
// sink that stages local-destination copies and collects each outbox
// entry's remote targets by destination shard. When the walk moves on
// to the next entry, the open one is written to every destination
// block it has targets in, its payload encoded once for all of them.
func (r *ShardRunner) route(round int, res *ShardStepResult) {
	for d := range r.blocks {
		r.blocks[d] = r.blocks[d][:0]
	}
	var encErr error
	open, openFrom := -1, 0 // the entry pend holds, and its sender
	var openPayload any
	flush := func() {
		var enc []byte
		encoded := false
		for d, targets := range r.pend {
			if len(targets) == 0 {
				continue
			}
			r.pend[d] = targets[:0]
			if !encoded {
				encoded = true
				var err error
				if enc, err = r.prog.EncodePayload(openPayload); err != nil && encErr == nil {
					encErr = err
				}
			}
			b := binary.AppendUvarint(r.blocks[d], uint64(openFrom))
			b = binary.AppendUvarint(b, uint64(len(targets)))
			for _, to := range targets {
				b = binary.AppendUvarint(b, uint64(to))
			}
			b = binary.AppendUvarint(b, uint64(len(enc)))
			r.blocks[d] = append(b, enc...)
		}
	}
	var fs FaultStats
	res.Messages, res.Volume = routeWalk(r.nodes.ctxs, nil, round, r.faults, &r.crash, &fs, func(from int, to int32, msg Message, entry int) {
		if to >= r.lo && to < r.hi {
			off := to - r.lo
			r.staged[off] = append(r.staged[off], msg)
			return
		}
		if entry != open {
			flush()
			open, openFrom, openPayload = entry, from, msg.Payload
		}
		d := sort.Search(len(r.ranges), func(s int) bool { return r.ranges[s].Hi > to })
		r.pend[d] = append(r.pend[d], to)
	})
	flush()
	res.Dropped, res.Duplicated, res.DeadLetters, res.Stall = fs.Dropped, fs.Duplicated, fs.DeadLetters, fs.Stall
	if encErr != nil {
		res.Err = fmt.Sprintf("dist: shard payload encoding failed: %v", encErr)
	}
	res.Blocks = r.blocks
}

// Deliver fills the next round's inboxes from the blocks the
// coordinator relayed here, one per source shard in shard order, plus
// the locally staged copies: lower-shard blocks, then the staged local
// copies, then higher-shard blocks — exactly the (sender, queue
// position) order the LOCAL engine delivers. Returns the post-delivery
// inbox high-water mark. A malformed block is an error, never a panic.
func (r *ShardRunner) Deliver(blocks [][]byte) (int, error) {
	if !r.stepped {
		return 0, fmt.Errorf("dist: shard Deliver without a preceding Step")
	}
	r.stepped = false
	if len(blocks) != len(r.ranges) {
		return 0, fmt.Errorf("dist: shard %d got %d blocks for %d shards", r.shard, len(blocks), len(r.ranges))
	}
	if len(blocks[r.shard]) != 0 {
		return 0, fmt.Errorf("dist: shard %d got a block from itself", r.shard)
	}
	for s, b := range blocks[:r.shard] {
		if err := r.deliverBlock(s, b); err != nil {
			return 0, err
		}
	}
	for j := range r.staged {
		if len(r.staged[j]) > 0 {
			r.inbox[j] = append(r.inbox[j], r.staged[j]...)
			r.staged[j] = r.staged[j][:0]
		}
	}
	for s, b := range blocks[r.shard+1:] {
		if err := r.deliverBlock(r.shard+1+s, b); err != nil {
			return 0, err
		}
	}
	maxInbox := 0
	for j := range r.inbox {
		if len(r.inbox[j]) > maxInbox {
			maxInbox = len(r.inbox[j])
		}
	}
	return maxInbox, nil
}

// deliverBlock appends the copies of source shard src's block to the
// inboxes: per entry, the payload is decoded once and the same Message
// goes to every target listed. Senders must lie in src's range and
// targets in this shard's.
func (r *ShardRunner) deliverBlock(src int, b []byte) error {
	from := r.ranges[src]
	for len(b) > 0 {
		sender, n := binary.Uvarint(b)
		if n <= 0 || sender < uint64(from.Lo) || sender >= uint64(from.Hi) {
			return fmt.Errorf("dist: block from shard %d has a sender outside its range [%d, %d)", src, from.Lo, from.Hi)
		}
		b = b[n:]
		count, n := binary.Uvarint(b)
		if n <= 0 || count == 0 || count > uint64(len(b)-n) {
			return fmt.Errorf("dist: block from shard %d: entry of sender %d has a bad target count", src, sender)
		}
		b = b[n:]
		r.tgt = r.tgt[:0]
		for range count {
			to, n := binary.Uvarint(b)
			if n <= 0 || to < uint64(r.lo) || to >= uint64(r.hi) {
				return fmt.Errorf("dist: block from shard %d: entry of sender %d targets a node outside shard range [%d, %d)", src, sender, r.lo, r.hi)
			}
			b = b[n:]
			r.tgt = append(r.tgt, int32(to))
		}
		size, n := binary.Uvarint(b)
		if n <= 0 || size > uint64(len(b)-n) {
			return fmt.Errorf("dist: block from shard %d: entry of sender %d has a truncated payload", src, sender)
		}
		data := b[n : n+int(size)]
		b = b[n+int(size):]
		pl, err := r.prog.DecodePayload(data)
		if err != nil {
			return fmt.Errorf("dist: shard payload decoding failed: %w", err)
		}
		msg := Message{From: r.ix.IDOf(int(sender)), Payload: pl}
		for _, to := range r.tgt {
			off := to - r.lo
			r.inbox[off] = append(r.inbox[off], msg)
		}
	}
	return nil
}

// Outputs encodes every local node's final output, by local offset.
func (r *ShardRunner) Outputs() ([][]byte, error) {
	out := make([][]byte, len(r.nodes.progs))
	for j, p := range r.nodes.progs {
		data, err := r.prog.EncodeOutput(int(r.lo)+j, p)
		if err != nil {
			return nil, fmt.Errorf("dist: shard output encoding failed for index %d: %w", int(r.lo)+j, err)
		}
		out[j] = data
	}
	return out, nil
}
