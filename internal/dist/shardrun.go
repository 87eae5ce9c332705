package dist

import (
	"fmt"

	"repro/internal/graph"
)

// ShardRunner hosts one contiguous node range of a partitioned run. It
// executes the range step by step under the coordinator's direction
// through the same kernel as the LOCAL engine — one nodeRange stepped on
// the calling goroutine (a shard host is single-threaded), the shared
// crash table, and the shared routing walk, whose sink stages
// local-destination copies and encodes remote ones.
type ShardRunner struct {
	ix     *graph.Indexed
	lo, hi int32
	prog   Program

	nodes    nodeRange
	curRound int32
	faults   *Faults
	crash    crashTable

	inbox  [][]Message // by local offset; the current round's inboxes
	staged [][]Message // by local offset; local-destination copies of the step
	out    []PartMsg

	stepped bool // a step ran since the last Deliver (barrier misuse guard)
}

// NewShardRunner builds a runner for range [cfg.Lo, cfg.Hi) of ix. The
// fault schedule is re-parsed locally from (FaultSpec, FaultSeed) — it
// is a pure function of the pair, so every shard and the coordinator
// decide identically without shipping schedule state.
func NewShardRunner(ix *graph.Indexed, cfg ShardConfig) (*ShardRunner, error) {
	n := ix.NumNodes()
	if cfg.Lo < 0 || cfg.Hi > int32(n) || cfg.Lo >= cfg.Hi {
		return nil, fmt.Errorf("dist: shard range [%d, %d) invalid for %d nodes", cfg.Lo, cfg.Hi, n)
	}
	prog, err := NewProgram(cfg.Program, ix, cfg.Params)
	if err != nil {
		return nil, err
	}
	r := &ShardRunner{ix: ix, lo: cfg.Lo, hi: cfg.Hi, prog: prog}
	if cfg.FaultSpec != "" {
		if r.faults, err = ParseFaults(cfg.FaultSpec, cfg.FaultSeed); err != nil {
			return nil, err
		}
	}
	if r.crash, err = newCrashTable(ix, r.faults); err != nil {
		return nil, err
	}
	local := int(cfg.Hi - cfg.Lo)
	progs := make([]Protocol, local)
	for j := range progs {
		progs[j] = prog.NewNode(int(cfg.Lo) + j)
	}
	r.nodes = newNodeRange(ix, int(cfg.Lo), progs, make([]Context, local), make([]bool, local), &r.curRound)
	r.inbox = make([][]Message, local)
	r.staged = make([][]Message, local)
	return r, nil
}

// Step executes step round (0 = Init) on every live local node and
// routes the outboxes: local-destination copies are staged for the
// coming Deliver, remote copies are returned in sender order. All
// delivery accounting — including drops, duplicates, dead letters, and
// stall — is charged here, sender-side, so the coordinator's sums equal
// the LOCAL engine's counters field for field.
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
	res.DeadNotDone, res.BlockedIdx, res.BlockedRound = r.crash.blocked(int(r.lo), r.nodes.done)
	return res
}

// route runs the shared routing walk over the range's outboxes with a
// sink that stages local-destination copies and encodes remote ones —
// once per outbox entry, so broadcast copies share the encoding.
func (r *ShardRunner) route(round int, res *ShardStepResult) {
	r.out = r.out[:0]
	var fs FaultStats
	var enc []byte
	var encErr error
	encoded := -1 // the outbox entry enc belongs to
	res.Messages, res.Volume = routeWalk(r.nodes.ctxs, int(r.lo), round, r.faults, &r.crash, &fs, func(from int, to int32, msg Message, entry int) {
		if to >= r.lo && to < r.hi {
			off := to - r.lo
			r.staged[off] = append(r.staged[off], msg)
			return
		}
		if entry != encoded {
			encoded = entry
			var err error
			if enc, err = r.prog.EncodePayload(msg.Payload); err != nil && encErr == nil {
				encErr = err
			}
		}
		r.out = append(r.out, PartMsg{From: int32(from), To: to, Data: enc})
	})
	res.Dropped, res.Duplicated, res.DeadLetters, res.Stall = fs.Dropped, fs.Duplicated, fs.DeadLetters, fs.Stall
	if encErr != nil {
		res.Err = fmt.Sprintf("dist: shard payload encoding failed: %v", encErr)
	}
	res.Msgs = r.out
}

// Deliver fills the next round's inboxes from the remote copies the
// coordinator routed here plus the locally staged block. incoming is in
// global sender order and contains no local senders, so it splits at
// the first sender ≥ hi: lower-shard copies, then the staged local
// block, then higher-shard copies — exactly the (sender, queue
// position) order the LOCAL engine delivers. Returns the post-delivery
// inbox high-water mark.
func (r *ShardRunner) Deliver(incoming []PartMsg) (int, error) {
	if !r.stepped {
		return 0, fmt.Errorf("dist: shard Deliver without a preceding Step")
	}
	r.stepped = false
	split := len(incoming)
	for i, m := range incoming {
		if m.From >= r.hi {
			split = i
			break
		}
	}
	appendRemote := func(msgs []PartMsg) error {
		for _, m := range msgs {
			if m.To < r.lo || m.To >= r.hi {
				return fmt.Errorf("dist: misrouted message for index %d on shard [%d, %d)", m.To, r.lo, r.hi)
			}
			pl, err := r.prog.DecodePayload(m.Data)
			if err != nil {
				return fmt.Errorf("dist: shard payload decoding failed: %w", err)
			}
			off := m.To - r.lo
			r.inbox[off] = append(r.inbox[off], Message{From: r.ix.IDOf(int(m.From)), Payload: pl})
		}
		return nil
	}
	if err := appendRemote(incoming[:split]); err != nil {
		return 0, err
	}
	for j := range r.staged {
		if len(r.staged[j]) > 0 {
			r.inbox[j] = append(r.inbox[j], r.staged[j]...)
			r.staged[j] = r.staged[j][:0]
		}
	}
	if err := appendRemote(incoming[split:]); err != nil {
		return 0, err
	}
	maxInbox := 0
	for j := range r.inbox {
		if len(r.inbox[j]) > maxInbox {
			maxInbox = len(r.inbox[j])
		}
	}
	return maxInbox, nil
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
