// Package dist simulates the LOCAL model of distributed computation
// (paper Section 1): the input graph is the communication network, every
// node hosts a state machine, and execution proceeds in synchronous
// rounds. In each round a node may perform unbounded local computation and
// send an unbounded message to each neighbor; the cost of an algorithm is
// the number of communication rounds.
//
// A message-passing program runs through Run, the only way to run a
// protocol and the one place that chooses a runtime: the in-process
// engine, or the shards of a Partition, which may live in other
// processes. Either way Run returns each node's output by snapshot
// index, with identical counters, fault schedules and observer streams.
// The package's own programs are the distance-r flood (Flood) and its
// retransmitting variant (FloodRetrans).
//
// The engine runs on a frozen graph.Indexed snapshot: nodes are dense
// indices, and every inbox holds its messages in the deterministic
// (sender, queue position) order, built without sorting. At the start of
// a run the snapshot's BFS order is split into GOMAXPROCS contiguous
// ranges, stepped concurrently every round by the same range kernel
// (kernel.go) that the partitioned runtime runs once per shard. A node
// sends only to its neighbors. The delivery mode is fixed per run: on a
// run without a fault plan each node pulls its inbox from its
// neighbors' previous-round output inside that step, every round; a
// run with one is delivered by the shared routing walk every round.
// Node programs interact only through messages delivered at round
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
// Concurrency contract: RoundStart, RoundEnd, and RunEnd are called
// from the goroutine driving Run. ShardStart/ShardEnd are called from
// worker goroutines — calls with distinct shard indices may be
// concurrent, and each shard index is used by exactly one goroutine per
// round. Observers are never invoked when RunOpts.Observer is nil,
// and a nil observer adds no per-node work to the round loop.
type RoundObserver interface {
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
// per-worker spans from the sharded compute kernels RunKernel launches
// *outside* the round engine: the pruning decide kernel, the per-path
// coloring and MIS-component stages, the correction gate-set setup, and
// the peeling path measurement. Kernels type-assert their
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
// A step's queue stores one entry per Send or Broadcast call: targets[k]
// is the receiver's index for a Send, or broadcastTarget for a
// Broadcast, which delivery expands over the neighbor row. Queue
// positions — the fault schedule's coordinates — are counted over the
// expanded sequence, so the compressed representation is invisible to
// fault plans.
type Context struct {
	id     graph.ID
	idx    int32 // own dense index in the snapshot
	nbrIDs []graph.ID
	nbrIdx []int32
	round  *int32 // engine's current step, shared by all contexts
	// out holds the node's queues by step parity: step r appends to
	// out[r&1], which neighbors pulling in step r+1 read while that step
	// appends to the other one.
	out [2]outQueue
}

// outQueue is one step's queued entries: messages and their targets.
type outQueue struct {
	msgs    []Message
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

// Send queues a message to neighbor to, delivered next round. The LOCAL
// model lets a node message its neighbors only, so any other target —
// the node itself, a distant node, a non-node — panics, and Run returns
// that as the node program's error on every runtime. The target's index
// is found by binary search over the node's own sorted neighbor row.
func (c *Context) Send(to graph.ID, payload any) {
	p, ok := slices.BinarySearch(c.nbrIDs, to)
	if !ok {
		panic(fmt.Sprintf("dist: node %d sent to %d, which is not a neighbor", c.id, to))
	}
	q := &c.out[*c.round&1]
	q.msgs = append(q.msgs, Message{From: c.id, Payload: payload})
	q.targets = append(q.targets, c.nbrIdx[p])
}

// Broadcast queues the same payload to every neighbor. It stores a
// single outbox entry; delivery expands it over the neighbor row in
// order, exactly as the equivalent sequence of Sends would.
func (c *Context) Broadcast(payload any) {
	if len(c.nbrIdx) == 0 {
		return
	}
	q := &c.out[*c.round&1]
	q.msgs = append(q.msgs, Message{From: c.id, Payload: payload})
	q.targets = append(q.targets, broadcastTarget)
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
	// Messages counts point-to-point messages sent over the whole run.
	Messages int
	// Volume sums payload sizes (Sizer units; 1 per message otherwise).
	// LOCAL allows unbounded messages — this measures what the protocols
	// actually use.
	Volume int

	// Fault accounting (all zero when RunOpts.Faults is nil): messages
	// dropped / duplicated / dead-lettered by the schedule, and the total
	// synchronizer stall (sum over rounds of the max link delay).
	Dropped     int
	Duplicated  int
	DeadLetters int
	Stall       int
}

// engine is the in-process runtime: it executes a Protocol instance on
// every node of a snapshot. Run builds one per LOCAL run.
type engine struct {
	ix    *graph.Indexed
	progs []Protocol // by node index

	// obs, when non-nil, receives per-round events (see RoundObserver).
	// Nil is the zero-cost fast path: no callback, no inbox high-water
	// scan, no extra allocation.
	obs RoundObserver
	// faults, when non-nil, attaches a deterministic fault-injection
	// schedule (see Faults). Nil keeps the unperturbed delivery loop
	// with no per-message decision.
	faults *Faults

	// Per-run state, built by start and laid out by the snapshot's BFS
	// order: ctxs, steps (the protocols) and done (their Done flags)
	// are by BFS position, and pos maps a snapshot index to its
	// position. ranges are contiguous chunks of positions, stepped each
	// round; curRound is the step index the contexts report. A run
	// without a fault plan delivers through board, which carries each
	// step's output to the next step's pulls; a run with one through in,
	// the inboxes the routing walk fills (by position, nil otherwise).
	ctxs     []Context
	steps    []Protocol
	done     []bool
	pos      []int32
	ranges   []nodeRange
	crash    crashTable
	board    pullBoard
	in       [][]Message
	curRound int32
}

// newEngine creates an engine running nodes.NewNode(i) on the node at
// every snapshot index i. NewNode is called in the snapshot's BFS
// order, the order the engine steps nodes in, so the protocol state of
// graph neighbors is allocated close together.
func newEngine(ix *graph.Indexed, nodes Nodes, opts RunOpts) *engine {
	e := &engine{ix: ix, progs: make([]Protocol, ix.NumNodes()), obs: opts.Observer, faults: opts.Faults}
	for _, i := range ix.BFSOrder() {
		e.progs[i] = nodes.NewNode(int(i))
	}
	return e
}

// Nodes builds the protocol every node of a run executes.
type Nodes interface {
	// NewNode returns the protocol for the node at global snapshot
	// index i.
	NewNode(i int) Protocol
}

// NodeFunc adapts a function to Nodes, for programs that only ever
// run in process.
type NodeFunc func(i int) Protocol

// NewNode implements Nodes.
func (f NodeFunc) NewNode(i int) Protocol { return f(i) }

// RunOpts groups what every run of a message-passing program takes
// besides the program itself.
type RunOpts struct {
	// Observer, when non-nil, receives per-round events (see
	// RoundObserver).
	Observer RoundObserver
	// Faults, when non-nil, attaches a deterministic fault-injection
	// schedule (see Faults).
	Faults *Faults
	// Part, when non-nil, runs the program on the partition's shards
	// instead of the in-process engine.
	Part *Partition
}

// Run executes nodes on every node of ix until every node is Done, or
// fails after maxRounds rounds, and returns each node's output by
// snapshot index — ascending ID order. It is the only way to run a
// protocol. With opts.Part nil the in-process engine steps
// nodes.NewNode protocols; otherwise nodes must be a Program, whose
// Params ship it to the partition's shards and whose codecs decode the
// outputs they return. Outputs, counters, fault schedules and observer
// streams are identical either way.
func Run(ix *graph.Indexed, nodes Nodes, opts RunOpts, maxRounds int) ([]any, *Result, error) {
	if opts.Part == nil {
		return runLoop(ix, opts.Observer, maxRounds, newEngine(ix, nodes, opts))
	}
	prog, ok := nodes.(Program)
	if !ok {
		return nil, nil, fmt.Errorf("dist: %T has no codecs, so it cannot run on a partition", nodes)
	}
	c, err := newCoordinator(ix, prog, opts)
	if err != nil {
		return nil, nil, err
	}
	return runLoop(ix, opts.Observer, maxRounds, c)
}

// start implements stepper: it builds the crash table, the contexts and
// the delivery state in BFS order, and the node ranges — SplitRange over
// GOMAXPROCS chunks of that order, fixed for the whole run, so every
// round of a run reports the same shard count. Most of a node's
// neighbors then sit in its own range, next to it.
func (e *engine) start() (*crashTable, error) {
	crash, err := newCrashTable(e.ix, e.faults)
	if err != nil {
		return nil, err
	}
	e.crash = crash
	n := e.ix.NumNodes()
	order := e.ix.BFSOrder()
	e.ctxs = make([]Context, n)
	e.steps = make([]Protocol, n)
	e.done = make([]bool, n)
	e.pos = make([]int32, n)
	for x, i := range order {
		e.pos[i] = int32(x)
		e.ctxs[x] = newContext(e.ix, i, &e.curRound)
		e.steps[x] = e.progs[i]
	}
	var board *pullBoard
	if e.faults.active() {
		e.in = make([][]Message, n)
	} else {
		e.board = newPullBoard(e.ix, e.ctxs, e.pos)
		board = &e.board
	}
	parts := SplitRange(n, runtime.GOMAXPROCS(0))
	e.ranges = make([]nodeRange, len(parts))
	for k, p := range parts {
		e.ranges[k] = nodeRange{
			progs:     e.steps[p.Lo:p.Hi],
			ctxs:      e.ctxs[p.Lo:p.Hi],
			done:      e.done[p.Lo:p.Hi],
			quiescent: allQuiescent(e.steps[p.Lo:p.Hi]),
			board:     board,
			pos0:      int(p.Lo),
		}
	}
	return &e.crash, nil
}

// step implements stepper: run every range, take the lowest-index
// panic over all ranges (so the error never depends on the range count
// or the step order), then deliver.
func (e *engine) step(round int, crashed []graph.ID, res *Result) (stepState, error) {
	e.curRound = int32(round)
	e.stepRanges(round)
	st := stepState{}
	var failed *nodeRange
	for k := range e.ranges {
		r := &e.ranges[k]
		if r.err != nil && (failed == nil || r.errIdx < failed.errIdx) {
			failed = r
		}
		st.done += r.doneCount
	}
	if failed != nil {
		return st, failed.err
	}
	e.deliver(round, st.done, crashed, res)
	st.deadNotDone, st.blockedIdx, st.blockedRound = e.crash.blocked(e.ctxs, e.done)
	return st, nil
}

// stepRanges runs the round's node programs: one range inline on the
// calling goroutine, several concurrently, one goroutine each. Ranges
// are disjoint and node programs touch only their own state and
// context, so every range count is race-free and equivalent.
//
//chordalvet:hotpath budget=0 in-process round step: runs once per round per protocol
func (e *engine) stepRanges(round int) {
	if e.obs != nil {
		e.obs.RoundStart(round, len(e.ranges))
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
func (e *engine) stepRange(k, round int, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	r := &e.ranges[k]
	if e.obs != nil {
		e.obs.ShardStart(k)
	}
	var inbox [][]Message
	if e.in != nil {
		inbox = e.in[r.pos0 : r.pos0+len(r.progs)]
	}
	r.step(round, inbox, e.crash.dead)
	if e.obs != nil {
		e.obs.ShardEnd(k)
	}
}

// finish implements stepper: collect the outputs by snapshot index.
func (e *engine) finish() ([]any, error) {
	outs := make([]any, len(e.progs))
	for i, p := range e.progs {
		outs[i] = p.Output()
	}
	return outs, nil
}

// deliver completes step round's delivery. Without a fault plan the
// next step pulls each inbox from the board inside its range step, so
// all that is left here is to charge the counters the ranges summed
// sender-side. With one, every copy is pushed into the next step's
// inboxes by the shared routing walk, on this single driving goroutine,
// in the (sender, queue position) order the shard runners use, so each
// message's fault coordinates — and hence the whole schedule — are
// identical for every range count and runtime. Both paths deliver each
// inbox in (sender, queue position) order. With an observer attached it
// also reports the round's message/volume deltas and the inbox
// high-water mark.
func (e *engine) deliver(round, done int, crashed []graph.ID, res *Result) {
	msgs, vol := 0, 0
	fs := FaultStats{Round: round, Crashed: crashed}
	if e.in == nil {
		for k := range e.ranges {
			msgs, vol = msgs+e.ranges[k].msgs, vol+e.ranges[k].vol
		}
	} else {
		in, pos := e.in, e.pos
		msgs, vol = routeWalk(e.ctxs, pos, round, e.faults, &e.crash, &fs, func(_ int, to int32, msg Message, _ int) {
			in[pos[to]] = append(in[pos[to]], msg)
		})
	}
	obs := e.obs
	chargeStep(obs, res, msgs, vol, &fs)
	if obs != nil {
		maxInbox := 0
		if e.in == nil {
			maxInbox = e.board.maxInbox(round)
		} else {
			for _, in := range e.in {
				maxInbox = max(maxInbox, len(in))
			}
		}
		obs.RoundEnd(RoundStats{
			Round:    round,
			Nodes:    len(e.ctxs),
			Shards:   len(e.ranges),
			Messages: msgs,
			Volume:   vol,
			Done:     done,
			MaxInbox: maxInbox,
		})
	}
}
