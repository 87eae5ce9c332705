package dist

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the retransmitting variant of full-information
// flooding: the graceful-degradation answer to message drops. The plain
// floodProtocol is round-counted — it trusts that every broadcast
// arrives, so a single dropped batch silently truncates a ball. The
// retransmitting protocol instead tracks, per neighbor, the set of
// records it owes that neighbor and keeps resending them every round
// until the neighbor acknowledges each record; a node is Done exactly
// when it owes nothing. Records carry their hop distance and are
// accepted Bellman-Ford style (keep the smaller), so duplicated and
// reordered deliveries are absorbed, and the final Knowledge holds the
// fault-free flood's members — the price of drops is paid in extra
// rounds and messages, which FloodRetrans reports.
//
// All per-record bookkeeping lives in slot space: each node numbers the
// records it learns 0, 1, 2, … in acceptance order, an IdxMap resolves
// a record's snapshot index to its slot, and the index/distance/queue
// state are dense slices indexed by slot. The only hashing on the
// record path is that single idx→slot probe; everything else — the
// Bellman-Ford relax, the obligation flags, the retransmit walk — is
// array indexing.

// retransRec is one disseminated record: a node's snapshot index plus
// the hop distance the receiver would know it at.
type retransRec struct {
	Idx  int32
	Hops int32
}

// retransBatch is the data message: every record the sender currently
// owes the receiver. Its payload size is its record count, like
// infoBatch.
type retransBatch struct {
	Recs []retransRec
}

// PayloadSize implements Sizer.
func (b *retransBatch) PayloadSize() int { return len(b.Recs) }

// retransAck acknowledges the records of one received batch: the node
// at snapshot index Idxs[i] is known to the acking node at Hops[i].
// Parallel slices rather than a map so the payload has a deterministic
// order.
type retransAck struct {
	Idxs []int32
	Hops []int32
}

// PayloadSize implements Sizer.
func (a *retransAck) PayloadSize() int { return len(a.Idxs) }

// retransQueue is the per-neighbor obligation set over record slots.
// order records every slot ever enqueued, in first-enqueue order;
// pending marks which of them are currently owed. Retransmission walks
// order, so the batch layout is a deterministic function of the
// protocol history alone.
type retransQueue struct {
	order   []int32
	ever    []bool // by slot: slot appears in order
	pending []bool // by slot: currently owed
	count   int
}

// ensure grows the per-slot flag slices to cover slot indices below n.
func (q *retransQueue) ensure(n int) {
	for len(q.pending) < n {
		q.pending = append(q.pending, false)
		q.ever = append(q.ever, false)
	}
}

type retransProtocol struct {
	v      graph.ID
	radius int
	nbrs   []graph.ID
	nbrPos map[graph.ID]int

	// slotOf maps a record's snapshot index to its slot; infos and best
	// are the snapshot indices and Bellman-Ford distances by slot. Slot
	// 0 is always the node's own record.
	slotOf IdxMap
	infos  []int32
	best   []int32

	queues       []retransQueue
	pendingCount int
}

func newRetransProtocol(v graph.ID, idx int, ix *graph.Indexed, radius int) *retransProtocol {
	adj := ix.NeighborIDs(idx)
	p := &retransProtocol{
		v:      v,
		radius: radius,
		nbrs:   adj,
		nbrPos: make(map[graph.ID]int, len(adj)),
		infos:  []int32{int32(idx)},
		best:   []int32{0},
		queues: make([]retransQueue, len(adj)),
	}
	p.slotOf.Put(int32(idx), 0)
	for i, u := range adj {
		p.nbrPos[u] = i
	}
	return p
}

// enqueueExcept marks slot as owed to every neighbor queue but fromQ —
// the one the record just arrived on: that neighbor offered it, so it
// already knows the record at a hop count at most ours. fromQ < 0
// enqueues to every neighbor (the initial self-record).
func (p *retransProtocol) enqueueExcept(fromQ int, slot int32) {
	for i := range p.queues {
		if i == fromQ {
			continue
		}
		q := &p.queues[i]
		q.ensure(int(slot) + 1)
		if !q.pending[slot] {
			if !q.ever[slot] {
				q.ever[slot] = true
				q.order = append(q.order, slot)
			}
			q.pending[slot] = true
			q.count++
			p.pendingCount++
		}
	}
}

func (p *retransProtocol) Init(ctx *Context) {
	if p.radius > 0 {
		p.enqueueExcept(-1, 0)
	}
	p.retransmit(ctx)
}

func (p *retransProtocol) Round(ctx *Context, inbox []Message) {
	for _, m := range inbox {
		switch pl := m.Payload.(type) {
		case *retransBatch:
			fromQ := p.nbrPos[m.From]
			ack := &retransAck{
				Idxs: make([]int32, 0, len(pl.Recs)),
				Hops: make([]int32, 0, len(pl.Recs)),
			}
			for _, rec := range pl.Recs {
				ri := rec.Idx
				slot, known := p.slotOf.Get(ri)
				if !known {
					slot = int32(len(p.infos))
					p.slotOf.Put(ri, slot)
					p.infos = append(p.infos, ri)
					p.best = append(p.best, rec.Hops)
					if int(rec.Hops) < p.radius {
						p.enqueueExcept(fromQ, slot)
					}
				} else if rec.Hops < p.best[slot] {
					p.best[slot] = rec.Hops
					if int(rec.Hops) < p.radius {
						p.enqueueExcept(fromQ, slot)
					}
				}
				// Always ack, even duplicates: the previous ack may
				// itself have been dropped.
				ack.Idxs = append(ack.Idxs, ri)
				ack.Hops = append(ack.Hops, p.best[slot])
			}
			ctx.Send(m.From, ack)
		case *retransAck:
			q := &p.queues[p.nbrPos[m.From]]
			for i, ri := range pl.Idxs {
				slot, known := p.slotOf.Get(ri)
				if !known || int(slot) >= len(q.pending) {
					continue
				}
				// The obligation is met once the neighbor knows the
				// record at least as well as we could tell it. A stale
				// ack (we have since found a shorter path) keeps the
				// record pending.
				if q.pending[slot] && pl.Hops[i] <= p.best[slot]+1 {
					q.pending[slot] = false
					q.count--
					p.pendingCount--
				}
			}
		}
	}
	p.retransmit(ctx)
}

// retransmit resends every currently-owed record to each neighbor. The
// protocol retries every round rather than waiting out the two-round ack
// latency: the redundancy costs messages, never correctness, and keeps
// the worst-case round overhead at the ack round-trip.
func (p *retransProtocol) retransmit(ctx *Context) {
	for i, u := range p.nbrs {
		q := &p.queues[i]
		if q.count == 0 {
			continue
		}
		batch := &retransBatch{Recs: make([]retransRec, 0, q.count)}
		for _, slot := range q.order {
			if q.pending[slot] {
				batch.Recs = append(batch.Recs, retransRec{Idx: p.infos[slot], Hops: p.best[slot] + 1})
			}
		}
		ctx.Send(u, batch)
	}
}

// Done flips back to false when a new record arrives and creates fresh
// obligations; the run ends only when every node simultaneously owes
// nothing.
func (p *retransProtocol) Done() bool { return p.pendingCount == 0 }

// Output returns the node's knowledge: every record it accepted, which
// at termination is the fault-free flood's ball whatever the drops. Its
// membership set shares slotOf's key table, which KnownIdx probes.
func (p *retransProtocol) Output() any {
	return &Knowledge{Center: p.v, Radius: p.radius, size: len(p.infos), known: p.slotOf.keySet()}
}

// retransProgram is the retransmitting flood as a Program.
type retransProgram struct {
	ix     *graph.Indexed
	radius int
}

// NewNode implements Program.
func (f *retransProgram) NewNode(i int) Protocol {
	return newRetransProtocol(f.ix.IDOf(i), i, f.ix, f.radius)
}

// FloodRetrans runs the retransmitting flood for at most budget rounds
// on ix and returns each node's knowledge by snapshot index plus the run
// result; Result.Rounds tells the caller how many rounds tolerating
// opts.Faults cost (the fault-free protocol pays radius + 2: the
// last-hop records still need their ack round-trip). A budget too small
// for the drop rate surfaces as the did-not-terminate error, not as
// silently truncated balls.
func FloodRetrans(ix *graph.Indexed, radius, budget int, opts RunOpts) ([]*Knowledge, *Result, error) {
	if radius < 0 {
		return nil, nil, fmt.Errorf("retransmitting flood: radius %d is negative", radius)
	}
	outs, res, err := Run(ix, &retransProgram{ix: ix, radius: radius}, opts, budget)
	if err != nil {
		return nil, nil, fmt.Errorf("retransmitting flood: %w", err)
	}
	return knowledgeOf(outs), res, nil
}
