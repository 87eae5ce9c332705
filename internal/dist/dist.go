// Package dist simulates the LOCAL model of distributed computation
// (paper Section 1): the input graph is the communication network, every
// node hosts a state machine, and execution proceeds in synchronous
// rounds. In each round a node may perform unbounded local computation and
// send an unbounded message to each neighbor; the cost of an algorithm is
// the number of communication rounds.
//
// The engine runs on a frozen graph.Indexed snapshot: nodes are dense
// indices, inboxes are per-node slices reused across rounds, and messages
// are delivered by walking senders in index order, which yields the
// deterministic (sender, queue position) delivery order without sorting.
// At the start of a run the node range is split into GOMAXPROCS
// contiguous ranges, stepped concurrently every round by the same range
// kernel (kernel.go) that the partitioned runtime runs once per shard;
// node programs interact only through messages delivered at round
// boundaries, so every range count produces identical results.
package dist

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Message is a point-to-point message delivered at the next round
// boundary. Payloads must be treated as immutable by both sender and
// receiver.
type Message struct {
	From    graph.ID
	Payload any
}

// Protocol is the per-node state machine of a LOCAL algorithm. The engine
// calls Init once before the first round and Round once per communication
// round until every node reports Done.
type Protocol interface {
	// Init runs before round 1; the node may send its first messages.
	Init(ctx *Context)
	// Round runs once per communication round with the messages sent to
	// this node in the previous round. The inbox slice is only valid for
	// the duration of the call: the engine reuses its backing array.
	Round(ctx *Context, inbox []Message)
	// Done reports whether this node's output is final. Done nodes keep
	// receiving Round calls (LOCAL nodes still relay messages); the run
	// stops when all nodes are simultaneously Done.
	Done() bool
	// Output returns the node's final output.
	Output() any
}

// Quiescent marks Protocol implementations whose Round call with an
// empty inbox is guaranteed to be a no-op: no state change, no sends.
// That holds for choreographies that drain every enabled action at the
// end of each step (so progress is driven entirely by received
// messages). When every protocol of a node range implements it, the
// range step skips the Round call for nodes with empty inboxes, making
// idle rounds cost O(active nodes) instead of O(n) protocol invocations
// — with outputs, message schedules, and round counts identical by
// construction.
type Quiescent interface {
	QuiescentRound()
}

// RoundStats is the per-round summary handed to a RoundObserver at each
// round boundary. Every field except Shards is a pure function of
// (graph, protocol) and therefore identical for every range count and
// runtime; Shards describes the schedule that happened to run the round.
type RoundStats struct {
	// Round is the step index: 0 for the Init step, then the 1-based
	// communication round.
	Round int
	// Nodes is the network size.
	Nodes int
	// Shards is the number of node ranges the round ran as: the
	// engine's range count, fixed at the start of the run, or the
	// partition's shard count.
	Shards int
	// Messages counts the point-to-point messages queued during this
	// round (delivered at the next round boundary).
	Messages int
	// Volume sums the payload sizes of those messages (Sizer units;
	// 1 per message otherwise).
	Volume int
	// Done is the number of nodes reporting Done after this round.
	Done int
	// MaxInbox is the largest single next-round inbox fill — the
	// inbox-capacity high-water mark of this round's delivery.
	MaxInbox int
}

// RoundObserver receives engine lifecycle events at round boundaries.
// The engine itself never reads the wall clock (the LOCAL model measures
// time in rounds, and the chordalvet wallclock invariant enforces it);
// an observer that wants wall times stamps these callbacks itself — see
// internal/obs for the canonical implementation.
//
// Concurrency contract: RunStart, RoundStart, RoundEnd, and RunEnd are
// called from the goroutine driving Engine.Run. ShardStart/ShardEnd are
// called from worker goroutines — calls with distinct shard indices may
// be concurrent, and each shard index is used by exactly one goroutine
// per round. Observers are never invoked when the engine's Observer
// field is nil, and a nil observer adds no per-node work to the round
// loop.
type RoundObserver interface {
	// RunStart fires once before the Init step.
	RunStart(nodes, edges int)
	// RoundStart fires before the round's node programs run. shards is
	// the worker-shard count of RoundStats.Shards.
	RoundStart(round, shards int)
	// ShardStart/ShardEnd bracket one node range's work within the
	// round (LOCAL engine runs only).
	ShardStart(shard int)
	ShardEnd(shard int)
	// RoundEnd fires after the round's messages are delivered.
	RoundEnd(stats RoundStats)
	// RunEnd fires after the final round, with the total round count.
	RunEnd(rounds int)
}

// PhaseSetter is optionally implemented by observers that label trace
// events with caller-defined phases (e.g. "prune-i03", "correction").
// Code that drives several engine runs under one observer sets the phase
// between runs; the engine itself never calls it.
type PhaseSetter interface {
	SetPhase(name string)
}

// KernelObserver is optionally implemented by RoundObservers that want
// per-worker spans from the sharded compute kernels running *outside*
// the round engine: the pruning decide kernel, the per-path coloring and
// MIS-component stages, the correction gate-set setup, and the peeling
// path measurement (internal/peel declares a structurally identical
// interface so it does not have to import this package; one
// implementation satisfies both). Kernels type-assert their
// RoundObserver — a nil or non-implementing observer keeps the
// documented zero-cost fast path, and the assertion itself never
// allocates, so the hotalloc budgets of the kernels are unaffected.
//
// Like RoundObserver, the kernel never reads the wall clock; the
// observer stamps the callbacks itself. items is the number of work
// items (centers, paths, components, groups) the shard processed, so
// imbalance ratios can separate skewed schedules from skewed items.
//
// Concurrency contract: KernelStart and KernelEnd are called from the
// goroutine driving the kernel; KernelShardStart/KernelShardEnd are
// called from worker goroutines — calls with distinct shard indices may
// be concurrent, each shard index used by exactly one goroutine per
// launch, and the kernel's WaitGroup orders every shard callback before
// KernelEnd. Kernel launches never nest under one observer.
type KernelObserver interface {
	// KernelStart fires once per launch, before any shard runs.
	KernelStart(kernel string, shards int)
	// KernelShardStart/KernelShardEnd bracket one worker shard's work.
	KernelShardStart(shard int)
	KernelShardEnd(shard, items int)
	// KernelEnd fires after every shard has finished.
	KernelEnd()
}

// Context is a node's interface to the network during Init/Round calls.
// The outbox stores one entry per Send or Broadcast call: targets[k] is
// the receiver's index for a Send, or broadcastTarget for a Broadcast,
// which collect expands over the neighbor row at delivery. Queue
// positions — the fault schedule's coordinates — are counted over the
// expanded sequence, so the compressed representation is invisible to
// fault plans.
type Context struct {
	id      graph.ID
	idx     int32 // own dense index in the snapshot
	nbrIDs  []graph.ID
	nbrIdx  []int32
	ix      *graph.Indexed
	round   *int32 // engine's current step, shared by all contexts
	outbox  []Message
	targets []int32
}

// broadcastTarget marks an outbox entry addressed to every neighbor.
const broadcastTarget int32 = -1

// ID returns the node's unique identifier.
func (c *Context) ID() graph.ID { return c.id }

// Round returns the current step index: 0 during Init, then the 1-based
// communication round. Rounds are synchronous, so every node observes
// the same value; protocols use it to anchor absolute-expiry flooding
// deadlines without keeping a per-node counter (which would drift for
// Quiescent protocols whose idle Round calls are skipped).
func (c *Context) Round() int { return int(*c.round) }

// Neighbors returns the node's neighbors in increasing ID order. The
// slice is shared with the engine's graph snapshot: treat it as
// read-only.
func (c *Context) Neighbors() []graph.ID { return c.nbrIDs }

// Degree returns the number of neighbors.
func (c *Context) Degree() int { return len(c.nbrIDs) }

// Send queues a message to node to, delivered next round. The hot path —
// sending to a neighbor, the only kind of send the LOCAL model grants for
// free — resolves the target index by binary search over the node's own
// sorted neighbor row instead of the snapshot-wide ID→index map; self
// sends use the precomputed own index; only sends to distant nodes fall
// back to the map lookup.
func (c *Context) Send(to graph.ID, payload any) {
	var j int32
	if p, ok := slices.BinarySearch(c.nbrIDs, to); ok {
		j = c.nbrIdx[p]
	} else if to == c.id {
		j = c.idx
	} else {
		ji, ok := c.ix.IndexOf(to)
		if !ok {
			panic(fmt.Sprintf("dist: node %d sent to %d, which is not a node of the network", c.id, to))
		}
		j = int32(ji)
	}
	c.outbox = append(c.outbox, Message{From: c.id, Payload: payload})
	c.targets = append(c.targets, j)
}

// Broadcast queues the same payload to every neighbor. It stores a
// single outbox entry; delivery expands it over the neighbor row in
// order, exactly as the equivalent sequence of Sends would.
func (c *Context) Broadcast(payload any) {
	if len(c.nbrIdx) == 0 {
		return
	}
	c.outbox = append(c.outbox, Message{From: c.id, Payload: payload})
	c.targets = append(c.targets, broadcastTarget)
}

// Sizer lets payload types report a size in abstract units (e.g. record
// counts) for bandwidth accounting; payloads without it count as 1 unit.
type Sizer interface {
	PayloadSize() int
}

// Result summarizes a finished run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Outputs maps each node to its protocol output.
	Outputs map[graph.ID]any
	// Messages counts point-to-point messages sent over the whole run.
	Messages int
	// Volume sums payload sizes (Sizer units; 1 per message otherwise).
	// LOCAL allows unbounded messages — this measures what the protocols
	// actually use.
	Volume int

	// Fault accounting (all zero when Engine.Faults is nil): messages
	// dropped / duplicated / dead-lettered by the schedule, and the total
	// synchronizer stall (sum over rounds of the max link delay).
	Dropped     int
	Duplicated  int
	DeadLetters int
	Stall       int
}

// Engine executes a Protocol instance on every node of a graph.
type Engine struct {
	ix    *graph.Indexed
	progs []Protocol // by node index

	// Observer, when non-nil, receives per-round events (see
	// RoundObserver). Nil — the default — is the zero-cost fast path:
	// no callback, no inbox high-water scan, no extra allocation.
	Observer RoundObserver
	// Faults, when non-nil, attaches a deterministic fault-injection
	// schedule (see Faults). Nil — the default — keeps the unperturbed
	// delivery loop with no per-message decision.
	Faults *Faults
	// SkipOutputs, when true, leaves Result.Outputs nil. Callers that
	// keep their own by-index references to the protocols (the
	// index-space flood collection) set it to skip the n-entry map build.
	SkipOutputs bool

	// ran guards against a second Run: progs hold terminal protocol
	// state after a run, so rerunning them would report a bogus 0-round
	// success.
	ran bool

	// Per-run state, built by start. ranges are the contiguous node
	// ranges stepped each round, views into ctxs, progs, and done (the
	// nodes' Done flags); cur/next are the per-node inboxes by node
	// index, double-buffered so the backing arrays are reused across
	// rounds; curRound is the step index the contexts report.
	ctxs      []Context
	done      []bool
	ranges    []nodeRange
	crash     crashTable
	cur, next [][]Message
	curRound  int32

	// deliver is collect's per-receiver message-count scratch, used to
	// reserve each inbox exactly once per round instead of growing it by
	// repeated append-doubling; touched is its list of this round's
	// receivers.
	deliver []int32
	touched []int32

	// inboxSlab holds the fault-free path's inbox backing arrays: each
	// round's inboxes are carved out of one slab sized by the counting
	// pass, double-buffered in step with cur/next so a slab is never
	// rewritten while its slices are being consumed.
	inboxSlab [2][]Message
	slabIdx   int
}

// NewEngine creates an engine running factory(v) on every node v of g.
func NewEngine(g *graph.Graph, factory func(v graph.ID) Protocol) *Engine {
	return NewEngineIndexed(graph.NewIndexed(g), factory)
}

// NewEngineIndexed creates an engine on an existing snapshot, letting
// callers that run many protocols over the same graph (e.g. iterated
// pruning) pay the snapshot cost once.
func NewEngineIndexed(ix *graph.Indexed, factory func(v graph.ID) Protocol) *Engine {
	e := &Engine{ix: ix, progs: make([]Protocol, ix.NumNodes())}
	for i, v := range ix.IDs() {
		e.progs[i] = factory(v)
	}
	return e
}

// Run executes the protocol until every node is Done, or fails after
// maxRounds rounds. It returns the number of rounds executed and each
// node's output. An engine runs at most once: the protocols hold
// terminal state afterwards, so a second Run returns an error instead of
// a bogus 0-round success.
func (e *Engine) Run(maxRounds int) (*Result, error) {
	return runLoop("Engine", &e.ran, e.ix, e.Observer, maxRounds, e)
}

// start implements stepper: it builds the crash table, the contexts and
// inboxes, and the node ranges — SplitRange over GOMAXPROCS, fixed for
// the whole run, so every round of a run reports the same shard count.
func (e *Engine) start() (*crashTable, error) {
	crash, err := newCrashTable(e.ix, e.Faults)
	if err != nil {
		return nil, err
	}
	e.crash = crash
	n := e.ix.NumNodes()
	e.ctxs = make([]Context, n)
	e.done = make([]bool, n)
	e.cur = make([][]Message, n)
	e.next = make([][]Message, n)
	parts := SplitRange(n, runtime.GOMAXPROCS(0))
	e.ranges = make([]nodeRange, len(parts))
	for k, p := range parts {
		e.ranges[k] = newNodeRange(e.ix, int(p.Lo), e.progs[p.Lo:p.Hi], e.ctxs[p.Lo:p.Hi], e.done[p.Lo:p.Hi], &e.curRound)
	}
	return &e.crash, nil
}

// step implements stepper: run every range, merge the range error slots
// in range order (so the lowest-index panic wins under any range
// count), then deliver.
func (e *Engine) step(round int, crashed []graph.ID, res *Result) (stepState, error) {
	e.curRound = int32(round)
	if round > 0 {
		e.cur, e.next = e.next, e.cur
	}
	e.stepRanges(round)
	st := stepState{}
	for k := range e.ranges {
		r := &e.ranges[k]
		if r.err != nil {
			return st, r.err
		}
		st.done += r.doneCount
	}
	e.collect(round, st.done, crashed, res)
	st.deadNotDone, st.blockedIdx, st.blockedRound = e.crash.blocked(0, e.done)
	return st, nil
}

// stepRanges runs the round's node programs: one range inline on the
// calling goroutine, several concurrently, one goroutine each. Ranges
// are disjoint and node programs touch only their own state and
// context, so every range count is race-free and equivalent.
//
//chordalvet:hotpath budget=0 in-process round step: runs once per round per protocol
func (e *Engine) stepRanges(round int) {
	if e.Observer != nil {
		e.Observer.RoundStart(round, len(e.ranges))
	}
	if len(e.ranges) == 1 {
		e.stepRange(0, round, nil)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(e.ranges))
	for k := range e.ranges {
		go e.stepRange(k, round, &wg)
	}
	wg.Wait()
}

// stepRange runs range k through the shared range step, bracketed by
// the observer's shard hooks; wg, when non-nil, is signalled at the end.
func (e *Engine) stepRange(k, round int, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	r := &e.ranges[k]
	if e.Observer != nil {
		e.Observer.ShardStart(k)
	}
	r.step(round, e.cur[r.lo:r.lo+len(r.progs)], e.crash.dead)
	if e.Observer != nil {
		e.Observer.ShardEnd(k)
	}
}

// finish implements stepper: build the ID-keyed outputs unless skipped.
func (e *Engine) finish(res *Result) error {
	if !e.SkipOutputs {
		res.Outputs = make(map[graph.ID]any, len(e.progs))
		for i, v := range e.ix.IDs() {
			res.Outputs[v] = e.progs[i].Output()
		}
	}
	return nil
}

// collect moves queued messages into next-round inboxes. Walking senders
// in increasing node index (= increasing ID) order delivers every inbox
// already sorted by (sender, queue position) — the order the legacy
// engine produced with a global stable sort — without sorting. Inbox
// slices are truncated and refilled in place, so steady-state rounds
// allocate nothing. With an observer attached it also reports the
// round's message/volume deltas and the inbox high-water mark.
//
// With a fault schedule attached, delivery is the shared routing walk
// on this single driving goroutine, in the same (sender, queue
// position) order the shard runners use, so each message's fault
// coordinates — and hence the whole schedule — are identical for every
// range count and runtime. Without one, the loop is the branch-free
// counting-pass path.
func (e *Engine) collect(round, done int, crashed []graph.ID, res *Result) {
	ctxs, next := e.ctxs, e.next
	msgs, vol := 0, 0
	var fs FaultStats
	if !e.Faults.active() {
		// Counting pass: reserve every receiving inbox at its exact fill
		// before delivering, so a round's delivery performs at most one
		// allocation per inbox whose high-water mark rises (instead of a
		// doubling ramp), and the delivery appends never move memory.
		// Inboxes were truncated as the step consumed them, so only this
		// round's receivers — the touched list — need any work at all.
		if e.deliver == nil {
			e.deliver = make([]int32, len(next))
		}
		cnt := e.deliver
		touched := e.touched[:0]
		total := 0
		for i := range ctxs {
			c := &ctxs[i]
			for _, to := range c.targets {
				if to >= 0 {
					total++
					if cnt[to] == 0 {
						touched = append(touched, to)
					}
					cnt[to]++
					continue
				}
				total += len(c.nbrIdx)
				for _, u := range c.nbrIdx {
					if cnt[u] == 0 {
						touched = append(touched, u)
					}
					cnt[u]++
				}
			}
		}
		e.touched = touched
		e.slabIdx ^= 1
		slab := e.inboxSlab[e.slabIdx]
		if cap(slab) < total {
			slab = make([]Message, 0, total)
			e.inboxSlab[e.slabIdx] = slab
		}
		pos := 0
		for _, to := range touched {
			c := int(cnt[to])
			cnt[to] = 0
			next[to] = slab[pos : pos : pos+c]
			pos += c
		}
		for i := range ctxs {
			c := &ctxs[i]
			for k, msg := range c.outbox {
				sz := payloadSize(msg.Payload)
				if to := c.targets[k]; to >= 0 {
					next[to] = append(next[to], msg)
					msgs++
					vol += sz
					continue
				}
				for _, u := range c.nbrIdx {
					next[u] = append(next[u], msg)
				}
				msgs += len(c.nbrIdx)
				vol += sz * len(c.nbrIdx)
			}
			c.outbox = c.outbox[:0]
			c.targets = c.targets[:0]
		}
	} else {
		for i := range next {
			next[i] = next[i][:0]
		}
		fs.Round = round
		fs.Crashed = crashed
		msgs, vol = routeWalk(ctxs, 0, round, e.Faults, &e.crash, &fs, func(_ int, to int32, msg Message, _ int) {
			next[to] = append(next[to], msg)
		})
	}
	obs := e.Observer
	chargeStep(obs, res, msgs, vol, &fs)
	if obs != nil {
		maxInbox := 0
		for i := range next {
			if len(next[i]) > maxInbox {
				maxInbox = len(next[i])
			}
		}
		obs.RoundEnd(RoundStats{
			Round:    round,
			Nodes:    len(ctxs),
			Shards:   len(e.ranges),
			Messages: msgs,
			Volume:   vol,
			Done:     done,
			MaxInbox: maxInbox,
		})
	}
}
