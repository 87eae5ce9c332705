package dist

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// This file is the round kernel both runtimes execute: the LOCAL engine
// (every node range in one process) and the partitioned
// ShardRunner/coordinator (one range per shard). It holds the only code
// that runs node programs (nodeRange.step), the fail-stop crash table,
// the sender-order routing walk in which the fault schedule is decided,
// the synchronous run loop, and the pull board through which the LOCAL
// engine's fault-free runs deliver inside the range step. LOCAL and
// partitioned runs are byte-identical because they run this code, not
// two copies of it.

// nodeRange is one range of a run's nodes, stepped in array order: the
// nodes' protocols, contexts and Done flags, aligned (each context
// carries its node's global snapshot index). Every range is a chunk of
// the snapshot's BFS order: the LOCAL engine's start at BFS position
// pos0, and a shard runner hosts one.
//
// The engine keeps its ranges in one array, so neighboring ranges share
// cache lines. Nothing in the per-node loop of a step writes a field of
// the range, except recoverAt on a panic: the step accounts in a
// stepAcc on its own stack and adds it to the range once, after the
// last node, so ranges stepping in parallel do not write to each
// other's lines per node.
type nodeRange struct {
	progs     []Protocol
	ctxs      []Context
	done      []bool
	doneCount int
	// quiescent is true when every protocol of the range implements
	// Quiescent, so empty-inbox Round calls can be skipped.
	quiescent bool
	// err is the lowest-index node-program panic of the range's last
	// step, and errIdx that node's index.
	err    error
	errIdx int32

	// board is the LOCAL engine's in-step delivery board on fault-free
	// runs (nil otherwise): every step publishes each node's output to
	// it, and every step after Init builds each inbox from it, in
	// pulled.
	board  *pullBoard
	pos0   int
	pulled []Message
	// msgs and vol are the last board step's sender-side accounting:
	// the step's copies and their volume.
	msgs, vol int
}

// stepAcc is one range step's per-node accounting: the pull buffer,
// the board's sender-side copies and volume, and the change in the
// range's Done count.
type stepAcc struct {
	pulled    []Message
	msgs, vol int
	done      int
}

// newNodeRange wraps progs, the protocols of global indices idx[0],
// idx[1], …, into a range, filling ctxs (one per protocol) with their
// network contexts. done holds the range's Done flags, all false; round
// is the step counter the contexts report.
func newNodeRange(ix *graph.Indexed, idx []int32, progs []Protocol, ctxs []Context, done []bool, round *int32) nodeRange {
	for j, i := range idx {
		ctxs[j] = newContext(ix, i, round)
	}
	return nodeRange{progs: progs, ctxs: ctxs, done: done, quiescent: allQuiescent(progs)}
}

// allQuiescent reports whether progs is non-empty and every protocol in
// it implements Quiescent.
func allQuiescent(progs []Protocol) bool {
	for _, p := range progs {
		if _, ok := p.(Quiescent); !ok {
			return false
		}
	}
	return len(progs) > 0
}

// newContext is the network context of the node at snapshot index i.
func newContext(ix *graph.Indexed, i int32, round *int32) Context {
	return Context{
		id:     ix.IDOf(int(i)),
		idx:    i,
		nbrIDs: ix.NeighborIDs(int(i)),
		nbrIdx: ix.NeighborIndices(int(i)),
		round:  round,
	}
}

// step runs step round (0 = Init) on every live node of the range in
// array order: Init, or Round with the node's inbox — pulled from the
// board when the range has one, otherwise inbox[j], truncated as it is
// consumed so delivery never needs a truncation pass. Crashed nodes
// (dead, by global index; nil without crashes) are skipped, and so are
// empty-inbox nodes of a quiescent range, whose call would be a no-op.
// Done transitions update the range's count. A panicking node program
// ends its own step only: the range carries on after it and keeps the
// lowest panicking index in r.err, so the error a step reports never
// depends on the step order.
//
//chordalvet:hotpath budget=0 shared range step: runs every node program of both runtimes
func (r *nodeRange) step(round int, inbox [][]Message, dead []bool) {
	acc := stepAcc{pulled: r.pulled}
	for at := 0; at < len(r.progs); {
		at = r.stepFrom(&acc, at, round, inbox, dead)
	}
	r.pulled = acc.pulled
	r.msgs, r.vol = acc.msgs, acc.vol
	r.doneCount += acc.done
}

// stepFrom steps the range's nodes from position at on, accounting in
// acc, and returns the end position, or — when a node program panics —
// the position after it, the panic recorded by recoverAt.
func (r *nodeRange) stepFrom(acc *stepAcc, at, round int, inbox [][]Message, dead []bool) (next int) {
	defer r.recoverAt(&next)
	par := round & 1
	for next = at; next < len(r.progs); next++ {
		c := &r.ctxs[next]
		if dead != nil && dead[c.idx] {
			continue
		}
		// The queue of this parity last held step round−2's output, long
		// consumed: reuse it.
		q := &c.out[par]
		q.msgs, q.targets = q.msgs[:0], q.targets[:0]
		p := r.progs[next]
		if round == 0 {
			p.Init(c)
		} else {
			var in []Message
			if r.board != nil {
				acc.pulled = r.board.pull(r.pos0+next, round, acc.pulled)
				in = acc.pulled
			} else {
				in = inbox[next]
				inbox[next] = in[:0]
			}
			if r.quiescent && len(in) == 0 {
				if r.board != nil {
					r.publish(acc, r.pos0+next, c, par)
				}
				continue
			}
			p.Round(c, in)
		}
		if d := p.Done(); d != r.done[next] {
			r.done[next] = d
			if d {
				acc.done++
			} else {
				acc.done--
			}
		}
		if r.board != nil {
			r.publish(acc, r.pos0+next, c, par)
		}
	}
	return next
}

// recoverAt turns a node-program panic at position *at into the range's
// error, unless a lower index already panicked this step, and moves *at
// past the node so the step resumes after it. A worker must return
// normally, or the engine's WaitGroup would hang.
func (r *nodeRange) recoverAt(at *int) {
	if rec := recover(); rec != nil {
		if i := r.ctxs[*at].idx; r.err == nil || i < r.errIdx {
			r.err = fmt.Errorf("dist: node program panicked: %v", rec)
			r.errIdx = i
		}
		*at++
	}
}

// publish posts the step output of node c, at BFS position pos, to the
// board's slot for this parity and charges its copies and volume to
// acc, sender-side, exactly as the routing walk counts them without a
// fault plan.
func (r *nodeRange) publish(acc *stepAcc, pos int, c *Context, par int) {
	q := &c.out[par]
	s := &r.board.slots[par][pos]
	switch {
	case len(q.msgs) == 0:
		*s = outSlot{}
	case len(q.msgs) == 1 && q.targets[0] == broadcastTarget:
		*s = outSlot{msg: q.msgs[0], kind: slotBroadcast}
	default:
		*s = outSlot{kind: slotQueue}
	}
	for k, m := range q.msgs {
		copies := 1
		if q.targets[k] == broadcastTarget {
			copies = len(c.nbrIdx)
		}
		acc.msgs += copies
		acc.vol += copies * payloadSize(m.Payload)
	}
}

// pullBoard is the LOCAL engine's in-step delivery state on fault-free
// runs, laid out by BFS position. Every step writes each node's output
// to the slots of its round parity, and the next step pulls each node's
// inbox from its neighbors' slots of the other parity inside the range
// step, so no delivery pass runs between steps. The slots and queues a
// step reads are never the ones it writes, which is what lets the
// ranges pull concurrently.
type pullBoard struct {
	// slots[p][x] is the output of the node at position x in the last
	// step of parity p.
	slots [2][]outSlot
	// nbr[nbrPtr[x]:nbrPtr[x+1]] are the positions of the neighbors of
	// the node at position x, in ascending index order.
	nbrPtr, nbr []int32
	// ctxs are the engine's contexts, by position.
	ctxs []Context
	// counted is maxInbox's scratch inbox.
	counted []Message
}

// newPullBoard lays the board out over ctxs, the contexts of the
// snapshot's nodes in the BFS order whose inverse is pos.
func newPullBoard(ix *graph.Indexed, ctxs []Context, pos []int32) pullBoard {
	n := len(ctxs)
	b := pullBoard{
		slots:  [2][]outSlot{make([]outSlot, n), make([]outSlot, n)},
		nbrPtr: make([]int32, n+1),
		nbr:    make([]int32, 0, 2*ix.NumEdges()),
		ctxs:   ctxs,
	}
	for x := range ctxs {
		for _, u := range ctxs[x].nbrIdx {
			b.nbr = append(b.nbr, pos[u])
		}
		b.nbrPtr[x+1] = int32(len(b.nbr))
	}
	return b
}

// Slot kinds: a node sent nothing, exactly one Broadcast (held in the
// slot itself), or anything else (read from its context's queue).
const (
	slotNone uint8 = iota
	slotBroadcast
	slotQueue
)

// outSlot is one node's published step output: the common case of a
// single Broadcast inline, so a pull reads one dense array.
type outSlot struct {
	msg  Message
	kind uint8
}

// pull builds the inbox of the node at position x for step round from
// its neighbors' outputs of step round−1, into buf: neighbors in
// ascending index order (which is ascending ID order) and each
// neighbor's entries addressed to the node — Broadcasts and Sends to
// it — in queue order. That is exactly the (sender, queue position)
// order the routing walk delivers, because every copy goes to a
// neighbor.
//
//chordalvet:hotpath budget=0 in-step pull delivery: runs for every node of every fault-free step
func (b *pullBoard) pull(x, round int, buf []Message) []Message {
	buf = buf[:0]
	par := (round - 1) & 1
	slots, self := b.slots[par], b.ctxs[x].idx
	for _, y := range b.nbr[b.nbrPtr[x]:b.nbrPtr[x+1]] {
		switch s := &slots[y]; s.kind {
		case slotBroadcast:
			buf = append(buf, s.msg)
		case slotQueue:
			q := &b.ctxs[y].out[par]
			for k, to := range q.targets {
				if to == broadcastTarget || to == self {
					buf = append(buf, q.msgs[k])
				}
			}
		}
	}
	return buf
}

// maxInbox is the largest inbox the pulls of step round+1 will build:
// the RoundStats high-water mark of step round's delivery, counted only
// for observers.
func (b *pullBoard) maxInbox(round int) int {
	most := 0
	for x := range b.ctxs {
		b.counted = b.pull(x, round+1, b.counted)
		most = max(most, len(b.counted))
	}
	return most
}

// crashTable is a run's fail-stop schedule in snapshot-index space. The
// engine consults it for every node, a shard runner for its range and
// its dead letters, the coordinator for the per-round Crashed lists.
// Without a crash schedule at and dead are nil and every method is
// inert.
type crashTable struct {
	ix *graph.Indexed
	// at[i] is the first step node i does not execute (-1 = never);
	// dead[i] flips once that step is reached.
	at   []int
	dead []bool
}

// newCrashTable validates f's crash schedule against ix and builds the
// table.
func newCrashTable(ix *graph.Indexed, f *Faults) (crashTable, error) {
	t := crashTable{ix: ix}
	if !f.active() || len(f.crash) == 0 {
		return t, nil
	}
	t.at = make([]int, ix.NumNodes())
	for i := range t.at {
		t.at[i] = -1
	}
	t.dead = make([]bool, len(t.at))
	for v, r := range f.crash {
		i, ok := ix.IndexOf(v)
		if !ok {
			return crashTable{}, fmt.Errorf("dist: fault plan crashes node %d, which is not a node of the network", v)
		}
		t.at[i] = r
	}
	return t, nil
}

// mark flips the nodes whose crash step is step into the dead set and
// returns them in ID order (nil when none).
func (t *crashTable) mark(step int) []graph.ID {
	var crashed []graph.ID
	for i, r := range t.at {
		if r == step {
			t.dead[i] = true
			crashed = append(crashed, t.ix.IDOf(i))
		}
	}
	slices.Sort(crashed)
	return crashed
}

// deadLetter reports whether a copy queued to node to in step round is
// never read: it is delivered at step round+1, and to crashes at or
// before that step.
func (t *crashTable) deadLetter(to int32, round int) bool {
	return t.at != nil && t.at[to] >= 0 && t.at[to] <= round+1
}

// blocked diagnoses the nodes of ctxs, whose Done flags are done: how
// many crashed before finishing, the lowest such index (-1 when none),
// and its crash step. The run can never terminate once every node is
// either Done or one of these.
func (t *crashTable) blocked(ctxs []Context, done []bool) (deadNotDone int, first int32, step int) {
	first = -1
	if t.dead == nil {
		return 0, first, 0
	}
	for j, d := range done {
		if i := ctxs[j].idx; t.dead[i] && !d {
			if first < 0 || i < first {
				first, step = i, t.at[i]
			}
			deadNotDone++
		}
	}
	return deadNotDone, first, step
}

// payloadSize is a payload's volume in Sizer units (1 without Sizer).
func payloadSize(p any) int {
	if s, ok := p.(Sizer); ok {
		return s.PayloadSize()
	}
	return 1
}

// routeWalk is the sender-order delivery pass of one step, shared by the
// engine's runs with a fault plan and the shard runner. It walks the
// step's queues of ctxs in ascending sender index — ctxs[walk[0]],
// ctxs[walk[1]], … — expands every Broadcast over the neighbor row,
// and routes each copy through the crash table and the fault plan at
// global (round, sender index, queue position) coordinates, positions
// counted over the expanded sequence.
// sink receives every delivered copy, twice in a row for a duplicate;
// entry numbers the queue entry a copy came from, so sinks can share
// per-entry work. Drops, duplicates, dead letters and stall go to fs and
// delivered copies to msgs/vol, all charged sender-side. The queues are
// reset.
func routeWalk(ctxs []Context, walk []int32, round int, f *Faults, crash *crashTable, fs *FaultStats,
	sink func(from int, to int32, msg Message, entry int)) (msgs, vol int) {
	perturb := f != nil && f.perturbs()
	var one [1]int32
	entry := 0
	par := round & 1
	for _, x := range walk {
		c := &ctxs[x]
		q := &c.out[par]
		sender := int(c.idx)
		pos := 0
		for k, msg := range q.msgs {
			sz := payloadSize(msg.Payload)
			targets := c.nbrIdx
			if to := q.targets[k]; to >= 0 {
				one[0] = to
				targets = one[:]
			}
			for _, to := range targets {
				p := pos
				pos++
				if crash.deadLetter(to, round) {
					fs.DeadLetters++
					continue
				}
				var act faultAction
				if perturb {
					act = f.decide(round, sender, p)
				}
				if act.drop {
					fs.Dropped++
					continue
				}
				if act.delay > fs.Stall {
					fs.Stall = act.delay
				}
				copies := 1
				if act.dup {
					fs.Duplicated++
					copies = 2
				}
				for range copies {
					sink(sender, to, msg, entry)
					msgs++
					vol += sz
				}
			}
			entry++
		}
		q.msgs, q.targets = q.msgs[:0], q.targets[:0]
	}
	return msgs, vol
}

// chargeStep adds one delivered step's message counters and fault
// counters to res, and reports the fault counters to obs, when non-nil,
// when the schedule did something this step.
func chargeStep(obs RoundObserver, res *Result, msgs, vol int, fs *FaultStats) {
	res.Messages += msgs
	res.Volume += vol
	if !fs.any() {
		return
	}
	res.Dropped += fs.Dropped
	res.Duplicated += fs.Duplicated
	res.DeadLetters += fs.DeadLetters
	res.Stall += fs.Stall
	if obs != nil {
		obs.FaultRound(*fs)
	}
}

// stepState is what the run loop needs from one executed step: the
// number of Done nodes and the crash-blocked diagnosis of
// crashTable.blocked over all nodes.
type stepState struct {
	done, deadNotDone int
	blockedIdx        int32
	blockedRound      int
}

// stepper is one runtime as the run loop drives it.
type stepper interface {
	// start validates the run configuration, builds the per-run state
	// and returns the run's crash table.
	start() (*crashTable, error)
	// step executes step round (0 = Init) and delivers its messages,
	// adding its counters to res; crashed lists the nodes that crash at
	// this step, in ID order.
	step(round int, crashed []graph.ID, res *Result) (stepState, error)
	// finish returns the outputs by snapshot index after the final step.
	finish() ([]any, error)
}

// runLoop executes a run until every node is Done, or fails after
// maxRounds rounds: the synchronous LOCAL round sequence both the
// engine and the partitioned coordinator drive. The crash-blocked
// check precedes the maxRounds check, so a run that can no longer
// finish is diagnosed as such rather than as a timeout.
func runLoop(ix *graph.Indexed, obs RoundObserver, maxRounds int, s stepper) ([]any, *Result, error) {
	crash, err := s.start()
	if err != nil {
		return nil, nil, err
	}
	n := ix.NumNodes()
	res := &Result{}
	st, err := s.step(0, crash.mark(0), res)
	for err == nil && st.done != n {
		if st.deadNotDone > 0 && st.done+st.deadNotDone == n {
			return nil, nil, fmt.Errorf("dist: node %d crashed at round %d and cannot finish; all surviving nodes are done",
				ix.IDOf(int(st.blockedIdx)), st.blockedRound)
		}
		if res.Rounds >= maxRounds {
			return nil, nil, fmt.Errorf("protocol did not terminate within %d rounds", maxRounds)
		}
		res.Rounds++
		st, err = s.step(res.Rounds, crash.mark(res.Rounds), res)
	}
	var outs []any
	if err == nil {
		outs, err = s.finish()
	}
	if err != nil {
		return nil, nil, err
	}
	if obs != nil {
		obs.RunEnd(res.Rounds)
	}
	return outs, res, nil
}
