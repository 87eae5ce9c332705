package dist

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// This file defines the partitioned runtime's transport abstraction: the
// engine's nodes are split into contiguous ranges of the snapshot's BFS
// order — the chunks the LOCAL engine steps as its node ranges — each
// range is hosted by a ShardRunner (in-process or in a child OS process
// behind internal/wire), and when Run is given a partition, a
// coordinator (coordinator.go) drives the engine's run loop over
// ShardLinks. Both sides run the round kernel of kernel.go, the one the
// LOCAL engine runs. A BFS chunk keeps most of its nodes' neighbors
// with it, so only the copies sent along the few arcs between chunks —
// the cut — cross the wire, as the LOCAL model's neighbor-only traffic
// would have it.
//
// Determinism is preserved by construction. The LOCAL engine delivers
// each inbox sorted by (sender index, queue position), achieved by
// walking senders in index order. Here every shard routes its own
// senders in index order, local copies straight into the inboxes and
// remote ones into one block per destination shard; the coordinator
// relays every block unread to its destination, and the receiving
// shard appends each block's copies and merges back, by a stable sort
// on the sender, the few inboxes whose senders sit on several shards.
// Fault schedules are decided sender-side, by the routing walk the
// LOCAL engine uses, at global (round, sender index, queue position)
// coordinates, so a partitioned run produces byte-identical outputs,
// fault counters, and round stats.
//
// Block format. A block is a sequence of entries, one per outbox entry
// (one Send or Broadcast call) with at least one copy for the
// destination shard, in sender order:
//
//	uvarint sender         global snapshot index
//	uvarint count          number of copies, ≥ 1
//	uvarint target × count global snapshot indices, in queue order
//	uvarint length         payload length
//	byte    payload × length
//
// The payload is encoded once per entry and written once per destination
// shard; a duplicated copy is its target listed twice in a row. The
// receiving shard decodes each entry's payload once and appends the same
// Message to every target it lists, just as the LOCAL engine shares one
// payload across the copies of a broadcast.

// ShardConfig configures one program run on a shard: which shard of the
// partition it is (it hosts the nodes at BFS positions Ranges[Shard];
// the other ranges tell it which shard hosts every other node), the
// registered program to instantiate, its opaque parameters, and the
// fault schedule as the (spec, seed) pair it is a pure function of —
// each side re-parses locally, so no schedule state crosses the wire.
// The shard rebuilds the BFS order from its own copy of the snapshot.
type ShardConfig struct {
	Shard     int
	Ranges    []PartRange
	Program   string
	Params    []byte
	FaultSpec string
	FaultSeed uint64
}

// ShardStepResult is what a shard reports after executing one step: its
// local termination state, the step's sender-side accounting (every
// delivered copy is counted by its sender, so coordinator sums equal
// the LOCAL engine's counters), and the remote-bound copies as one
// block per destination shard.
type ShardStepResult struct {
	Round int
	// Done is the shard's count of nodes whose protocol reports Done.
	Done int
	// DeadNotDone counts crashed-but-unfinished local nodes; BlockedIdx
	// is the smallest such global index (-1 when none) and BlockedRound
	// its crash round — crashTable.blocked over the shard's nodes, which
	// the coordinator merges (sum, smallest index) into the run loop's
	// crash-blocked diagnosis.
	DeadNotDone  int
	BlockedIdx   int32
	BlockedRound int
	// Sender-side delivery accounting for this step.
	Messages    int
	Volume      int
	Dropped     int
	Duplicated  int
	DeadLetters int
	Stall       int
	// Blocks holds the step's remote-bound copies, indexed by
	// destination shard, in the block format above; the shard's own
	// entry is empty. The slices alias the runner's buffers: they stay
	// valid until the shard's next Step, and must not be modified.
	Blocks [][]byte
	// Err carries a node-program panic ("dist: node program panicked:
	// ..."), formatted exactly like the LOCAL engine's failure, and
	// ErrIdx the panicking node's index: the lowest one, when several
	// panic. ErrIdx is -1 when Err is empty or no node caused it.
	Err    string
	ErrIdx int32
}

// ShardLink is the coordinator's handle on one shard. Begin/await pairs
// are split so a TCP transport pipelines: the coordinator broadcasts
// Step to every shard before awaiting any result. Methods are called
// from the single goroutine driving the coordinator, in a fixed
// sequence per round: Step*, StepResult*, Deliver*, DeliverResult*.
type ShardLink interface {
	// Start configures a fresh program run on the shard. A link is
	// reused across runs (the pruning phase floods once per iteration);
	// Start resets all run state.
	Start(cfg ShardConfig) error
	// Step begins step round (0 = Init) on the shard.
	Step(round int) error
	// StepResult awaits the result of the step begun by Step.
	StepResult() (*ShardStepResult, error)
	// Deliver hands the shard the blocks addressed to it, one per
	// source shard in shard order (its own entry empty), for merging
	// into the inboxes that hold its local copies. The link does not
	// retain blocks after Deliver returns.
	Deliver(round int, blocks [][]byte) error
	// DeliverResult awaits the delivery ack and returns the shard's
	// post-delivery inbox high-water mark.
	DeliverResult() (maxInbox int, err error)
	// Outputs returns the program-encoded output of each local node,
	// by local offset: in the BFS order of the shard's range.
	Outputs() ([][]byte, error)
	// Close releases the link (and, for process transports, the child).
	Close() error
}

// WireMeter is optionally implemented by ShardLinks that move bytes
// over a real transport. The coordinator samples it at round
// boundaries and reports the deltas through RoundObserver.WireRound;
// in-process links simply do not implement it.
type WireMeter interface {
	// WireBytes returns the cumulative bytes received from and sent to
	// the shard over the link's lifetime.
	WireBytes() (in, out int64)
}

// PartRange is one shard's contiguous range [Lo, Hi) of positions in
// the snapshot's BFS order (graph.Indexed.BFSOrder): the shard hosts
// the nodes BFSOrder()[Lo:Hi].
type PartRange struct {
	Lo, Hi int32
}

// Partition is a set of shard links covering a snapshot: Links[i] hosts
// the nodes at BFS positions Ranges[i], and ranges are contiguous,
// ascending, and exhaustive over [0, n). With SplitRange's ranges, the
// shards host exactly the chunks the LOCAL engine steps at as many
// ranges.
type Partition struct {
	Links  []ShardLink
	Ranges []PartRange
}

// checkRanges verifies that ranges are non-empty, contiguous, ascending
// and exhaustive over [0, n). The empty snapshot has exactly one range,
// [0, 0), as SplitRange gives it.
func checkRanges(ranges []PartRange, n int) error {
	if n == 0 && len(ranges) == 1 && ranges[0] == (PartRange{}) {
		return nil
	}
	want := int32(0)
	for s, rg := range ranges {
		if rg.Lo != want || rg.Hi <= rg.Lo {
			return fmt.Errorf("dist: partition range %d is [%d, %d), want contiguous from %d", s, rg.Lo, rg.Hi, want)
		}
		want = rg.Hi
	}
	if int(want) != n {
		return fmt.Errorf("dist: partition covers [0, %d), snapshot has %d nodes", want, n)
	}
	return nil
}

// SplitRange divides [0, n) into parts contiguous near-equal ranges
// (the first n%parts ranges are one longer). parts is clamped to
// [1, max(n, 1)] so every shard hosts at least one node whenever the
// snapshot is non-empty.
func SplitRange(n, parts int) []PartRange {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = max(n, 1)
	}
	out := make([]PartRange, parts)
	chunk, rem := n/parts, n%parts
	lo := 0
	for s := range out {
		hi := lo + chunk
		if s < rem {
			hi++
		}
		out[s] = PartRange{Lo: int32(lo), Hi: int32(hi)}
		lo = hi
	}
	return out
}

// Program is a message-passing program: one protocol family plus the
// per-run state its nodes share, and the codecs that carry its
// payloads and outputs across the process boundary. Run steps the
// caller's Program on the LOCAL engine, or ships it to a partition's
// shards by its Params; each shard rebuilds it from (name, params,
// snapshot) through the registry, and the coordinator decodes the
// shards' outputs with the caller's own value.
//
// Codec contract: DecodePayload(EncodePayload(p)) must be semantically
// identical to p — same concrete type (protocol type switches must
// match) and same content as seen by the protocol and by Sizer. The
// payload size (Sizer) is always charged sender-side on the original
// value, so encoding never affects volume accounting.
type Program interface {
	Nodes
	// Params returns the registered name and the opaque parameters the
	// program's ProgramFactory rebuilds it from. Run calls it only for
	// partitioned runs.
	Params() (name string, params []byte, err error)
	// EncodePayload serializes an outgoing payload. It is called once
	// per outbox entry with copies on other shards (broadcast copies
	// share the encoding).
	EncodePayload(p any) ([]byte, error)
	// DecodePayload rebuilds a payload on the receiving side. It is
	// called once per outbox entry per destination shard, and the
	// result is shared by every local recipient of the entry — like a
	// LOCAL broadcast's payload — so it must be immutable, as Message
	// already requires. data aliases the transport's buffer and is only
	// valid during the call.
	DecodePayload(data []byte) (any, error)
	// EncodeOutput serializes node i's final output from its protocol.
	EncodeOutput(i int, p Protocol) ([]byte, error)
	// DecodeOutput rebuilds node i's output on the coordinator.
	DecodeOutput(i int, data []byte) (any, error)
}

// ProgramFactory builds a Program for one run over the given snapshot.
// params is the program's opaque configuration, produced by its Params
// on the coordinator and shipped verbatim to every shard.
type ProgramFactory func(ix *graph.Indexed, params []byte) (Program, error)

var (
	programMu  sync.Mutex
	programReg = map[string]ProgramFactory{}
)

// RegisterProgram registers a program factory under a unique name.
// Programs register from init functions (dist registers "flood" and
// "retrans"; internal/core registers "correction"), so any process that
// links the package can host its shards. Double registration panics —
// it is always a wiring bug.
func RegisterProgram(name string, f ProgramFactory) {
	programMu.Lock()
	defer programMu.Unlock()
	if _, dup := programReg[name]; dup {
		panic(fmt.Sprintf("dist: program %q registered twice", name))
	}
	programReg[name] = f
}

// NewProgram instantiates a registered program for one run.
func NewProgram(name string, ix *graph.Indexed, params []byte) (Program, error) {
	programMu.Lock()
	f, ok := programReg[name]
	programMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: program %q is not registered in this process", name)
	}
	return f(ix, params)
}
