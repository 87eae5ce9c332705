package dist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// ShardRunner hosts one shard of a partitioned run: the nodes at BFS
// positions Ranges[Shard] of the snapshot's BFS order, the chunk the
// LOCAL engine steps as one range. It executes them step by step under
// the coordinator's direction through the same kernel as the LOCAL
// engine — one nodeRange stepped on the calling goroutine (a shard host
// is single-threaded), the shared crash table, and the shared routing
// walk, whose sink appends local-destination copies to the inboxes and
// writes remote ones into per-destination blocks (see the block format
// in partition.go).
type ShardRunner struct {
	ix    *graph.Indexed
	shard int
	prog  Program

	// host maps a snapshot index to its local offset when this shard
	// hosts it, and to -1-s when shard s does. walk lists the local
	// offsets in ascending index order: the routing walk's sender order.
	host []int32
	walk []int32

	nodes    nodeRange
	curRound int32
	faults   *Faults
	crash    crashTable

	inbox    [][]Message // by local offset; the coming step's inboxes
	blocks   [][]byte    // by destination shard; the step's remote-bound blocks
	pend     [][]int32   // by destination shard; the open entry's targets there
	tgt      []int32     // Deliver's per-entry target scratch
	unsorted []int32     // Deliver's inboxes that got a copy out of sender order

	pending int // the round whose blocks Deliver accepts: the last Step's until delivered, else -1
}

// NewShardRunner builds a runner for shard cfg.Shard of the partition
// cfg.Ranges of ix. The fault schedule is re-parsed locally from
// (FaultSpec, FaultSeed) — it is a pure function of the pair, so every
// shard and the coordinator decide identically without shipping
// schedule state.
func NewShardRunner(ix *graph.Indexed, cfg ShardConfig) (*ShardRunner, error) {
	n := ix.NumNodes()
	if err := checkRanges(cfg.Ranges, n); err != nil {
		return nil, err
	}
	if cfg.Shard < 0 || cfg.Shard >= len(cfg.Ranges) {
		return nil, fmt.Errorf("dist: shard %d of a %d-shard partition", cfg.Shard, len(cfg.Ranges))
	}
	prog, err := NewProgram(cfg.Program, ix, cfg.Params)
	if err != nil {
		return nil, err
	}
	r := &ShardRunner{ix: ix, shard: cfg.Shard, prog: prog, host: make([]int32, n), pending: -1}
	if cfg.FaultSpec != "" {
		if r.faults, err = ParseFaults(cfg.FaultSpec, cfg.FaultSeed); err != nil {
			return nil, err
		}
	}
	if r.crash, err = newCrashTable(ix, r.faults); err != nil {
		return nil, err
	}
	order := ix.BFSOrder()
	for s, rg := range cfg.Ranges {
		for x, i := range order[rg.Lo:rg.Hi] {
			r.host[i] = -1 - int32(s)
			if s == cfg.Shard {
				r.host[i] = int32(x)
			}
		}
	}
	rg := cfg.Ranges[cfg.Shard]
	mine := order[rg.Lo:rg.Hi]
	r.walk = make([]int32, 0, len(mine))
	for _, h := range r.host {
		if h >= 0 {
			r.walk = append(r.walk, h)
		}
	}
	progs := make([]Protocol, len(mine))
	for j, i := range mine {
		progs[j] = prog.NewNode(int(i))
	}
	r.nodes = newNodeRange(ix, mine, progs, make([]Context, len(mine)), make([]bool, len(mine)), &r.curRound)
	r.inbox = make([][]Message, len(mine))
	r.blocks = make([][]byte, len(cfg.Ranges))
	r.pend = make([][]int32, len(cfg.Ranges))
	return r, nil
}

// Step executes step round (0 = Init) on every live local node and
// routes the outboxes: local-destination copies go straight into the
// inboxes, which the step has just consumed, and remote copies are
// returned as one block per destination shard. All delivery accounting
// — including drops, duplicates, dead letters, and stall — is charged
// here, sender-side, so the coordinator's sums equal the LOCAL engine's
// counters field for field.
func (r *ShardRunner) Step(round int) *ShardStepResult {
	r.curRound = int32(round)
	r.pending = round
	r.crash.mark(round)
	res := &ShardStepResult{Round: round, BlockedIdx: -1, ErrIdx: -1}
	r.nodes.step(round, r.inbox, r.crash.dead)
	if r.nodes.err != nil {
		res.Err, res.ErrIdx = r.nodes.err.Error(), r.nodes.errIdx
		return res
	}
	r.route(round, res)
	res.Done = r.nodes.doneCount
	res.DeadNotDone, res.BlockedIdx, res.BlockedRound = r.crash.blocked(r.nodes.ctxs, r.nodes.done)
	return res
}

// route runs the shared routing walk over the shard's outboxes in
// ascending sender index, with a sink that appends local-destination
// copies to the inboxes and collects each outbox entry's remote targets
// by destination shard. When the walk moves on to the next entry, the
// open one is written to every destination block it has targets in, its
// payload encoded once for all of them.
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
	res.Messages, res.Volume = routeWalk(r.nodes.ctxs, r.walk, round, r.faults, &r.crash, &fs, func(from int, to int32, msg Message, entry int) {
		h := r.host[to]
		if h >= 0 {
			r.inbox[h] = append(r.inbox[h], msg)
			return
		}
		if entry != open {
			flush()
			open, openFrom, openPayload = entry, from, msg.Payload
		}
		r.pend[-1-h] = append(r.pend[-1-h], to)
	})
	flush()
	res.Dropped, res.Duplicated, res.DeadLetters, res.Stall = fs.Dropped, fs.Duplicated, fs.DeadLetters, fs.Stall
	if encErr != nil {
		res.Err = fmt.Sprintf("dist: shard payload encoding failed: %v", encErr)
	}
	res.Blocks = r.blocks
}

// Deliver completes the coming step's inboxes, which hold the step's
// local copies, with the copies in the blocks the coordinator relayed
// here, one per source shard in shard order. Every source lists its
// senders in ascending index order, so only an inbox whose senders sit
// on several shards can get a copy out of order; each such inbox is
// merged back into the (sender, queue position) order the LOCAL engine
// delivers by a stable sort on the sender, which keeps each sender's
// copies in queue order and a duplicate next to its original. round
// must be the last Step's, delivered once. Returns the post-delivery
// inbox high-water mark. A malformed block is an error, never a panic.
func (r *ShardRunner) Deliver(round int, blocks [][]byte) (int, error) {
	if round != r.pending {
		if r.pending < 0 {
			return 0, fmt.Errorf("dist: shard %d got the blocks of round %d without a step to deliver them to", r.shard, round)
		}
		return 0, fmt.Errorf("dist: shard %d got the blocks of round %d after stepping round %d", r.shard, round, r.pending)
	}
	r.pending = -1
	if len(blocks) != len(r.blocks) {
		return 0, fmt.Errorf("dist: shard %d got %d blocks for %d shards", r.shard, len(blocks), len(r.blocks))
	}
	if len(blocks[r.shard]) != 0 {
		return 0, fmt.Errorf("dist: shard %d got a block from itself", r.shard)
	}
	for s, b := range blocks {
		if err := r.deliverBlock(s, b); err != nil {
			return 0, err
		}
	}
	slices.Sort(r.unsorted)
	for _, h := range slices.Compact(r.unsorted) {
		slices.SortStableFunc(r.inbox[h], func(a, b Message) int { return cmp.Compare(a.From, b.From) })
	}
	r.unsorted = r.unsorted[:0]
	maxInbox := 0
	for _, in := range r.inbox {
		maxInbox = max(maxInbox, len(in))
	}
	return maxInbox, nil
}

// deliverBlock appends the copies of source shard src's block to the
// inboxes: per entry, the payload is decoded once and the same Message
// goes to every target listed. Shard src must host the sender, and this
// shard every target.
func (r *ShardRunner) deliverBlock(src int, b []byte) error {
	hostedBySrc := -1 - int32(src)
	for len(b) > 0 {
		sender, n := binary.Uvarint(b)
		if n <= 0 || sender >= uint64(len(r.host)) || r.host[sender] != hostedBySrc {
			return fmt.Errorf("dist: block from shard %d has a sender that shard does not host", src)
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
			if n <= 0 || to >= uint64(len(r.host)) || r.host[to] < 0 {
				return fmt.Errorf("dist: block from shard %d: entry of sender %d targets a node shard %d does not host", src, sender, r.shard)
			}
			b = b[n:]
			r.tgt = append(r.tgt, r.host[to])
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
		for _, h := range r.tgt {
			in := r.inbox[h]
			if len(in) > 0 && in[len(in)-1].From > msg.From {
				r.unsorted = append(r.unsorted, h)
			}
			r.inbox[h] = append(in, msg)
		}
	}
	return nil
}

// Outputs encodes every local node's final output, by local offset.
func (r *ShardRunner) Outputs() ([][]byte, error) {
	out := make([][]byte, len(r.nodes.progs))
	for j, p := range r.nodes.progs {
		i := int(r.nodes.ctxs[j].idx)
		data, err := r.prog.EncodeOutput(i, p)
		if err != nil {
			return nil, fmt.Errorf("dist: shard output encoding failed for index %d: %w", i, err)
		}
		out[j] = data
	}
	return out, nil
}
