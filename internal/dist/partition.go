package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// This file defines the partitioned runtime's transport abstraction: the
// engine's nodes are split into contiguous snapshot-index ranges, each
// range is hosted by a ShardRunner (in-process or in a child OS process
// behind internal/wire), and a coordinator (coordinator.go) drives the
// engine's run loop over ShardLinks. Both sides run the round kernel of
// kernel.go, the one the LOCAL engine runs.
//
// Determinism is preserved by construction. The LOCAL engine delivers
// each inbox sorted by (sender index, queue position), achieved by
// walking senders in index order. Here every shard routes its own
// senders in index order, the coordinator concatenates the per-shard
// message blocks in shard order (shards are contiguous ascending
// ranges, so shard order IS sender-index order), and the receiving
// shard splices its own locally-staged block between the lower- and
// higher-shard blocks. Fault schedules are decided sender-side, by the
// routing walk the LOCAL engine uses, at global (round, sender index,
// queue position) coordinates, so a partitioned run produces
// byte-identical outputs, fault counters, and round stats.

// PartMsg is one message copy crossing a shard boundary: global sender
// and receiver snapshot indices plus the program-encoded payload.
// Duplicated copies appear as adjacent entries, exactly as the LOCAL
// engine appends them.
type PartMsg struct {
	From int32
	To   int32
	Data []byte
}

// ShardConfig configures one program run on a shard: the shard's node
// range, the registered program to instantiate, its opaque parameters,
// and the fault schedule as the (spec, seed) pair it is a pure function
// of — each side re-parses locally, so no schedule state crosses the
// wire.
type ShardConfig struct {
	Lo, Hi    int32
	Program   string
	Params    []byte
	FaultSpec string
	FaultSeed uint64
}

// ShardStepResult is what a shard reports after executing one step: its
// local termination state, the step's sender-side accounting (every
// delivered copy is counted by its sender, so coordinator sums equal
// the LOCAL engine's counters), and the remote-bound messages in sender
// order.
type ShardStepResult struct {
	Round int
	// Done is the shard's count of nodes whose protocol reports Done.
	Done int
	// DeadNotDone counts crashed-but-unfinished local nodes; BlockedIdx
	// is the smallest such global index (-1 when none) and BlockedRound
	// its crash round — crashTable.blocked over the shard's range, summed
	// by the coordinator into the run loop's crash-blocked diagnosis.
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
	// Msgs are the copies addressed outside [Lo, Hi), in sender order.
	Msgs []PartMsg
	// Err carries a node-program panic ("dist: node program panicked:
	// ..."), formatted exactly like the LOCAL engine's failure.
	Err string
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
	// Deliver hands the shard the remote copies addressed to it, in
	// global sender order, for splicing with its locally staged block.
	Deliver(round int, msgs []PartMsg) error
	// DeliverResult awaits the delivery ack and returns the shard's
	// post-delivery inbox high-water mark.
	DeliverResult() (maxInbox int, err error)
	// Outputs returns the program-encoded output of each local node,
	// by local offset.
	Outputs() ([][]byte, error)
	// Close releases the link (and, for process transports, the child).
	Close() error
}

// WireMeter is optionally implemented by ShardLinks that move bytes
// over a real transport. The coordinator samples it at round
// boundaries and reports the deltas to observers implementing
// WireObserver; in-process links simply do not implement it.
type WireMeter interface {
	// WireBytes returns the cumulative bytes received from and sent to
	// the shard over the link's lifetime.
	WireBytes() (in, out int64)
}

// WireObserver is an optional extension of RoundObserver for the
// partitioned runtime: observers that implement it receive per-round
// bytes-on-wire totals (summed over all shard links), immediately
// before the matching RoundEnd. LOCAL runs never fire it.
type WireObserver interface {
	WireRound(round int, bytesIn, bytesOut int64)
}

// PartRange is one shard's contiguous snapshot-index range [Lo, Hi).
type PartRange struct {
	Lo, Hi int32
}

// Partition is a set of shard links covering a snapshot: Links[i] hosts
// Ranges[i], and ranges are contiguous, ascending, and exhaustive over
// [0, n).
type Partition struct {
	Links  []ShardLink
	Ranges []PartRange
}

// Parts returns the number of shards.
func (p *Partition) Parts() int { return len(p.Links) }

// shardOf returns the shard hosting global index to. Ranges are
// contiguous and ascending, so binary search resolves it.
func (p *Partition) shardOf(to int32) int {
	return sort.Search(len(p.Ranges), func(s int) bool { return p.Ranges[s].Hi > to })
}

// Close closes every link, returning the first error.
func (p *Partition) Close() error {
	var first error
	for _, l := range p.Links {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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

// Program adapts one protocol family to the partitioned runtime: it
// builds per-node protocols from shared per-run state and translates
// payloads and outputs across the process boundary. A Program is built
// identically on the coordinator and on every shard from the same
// (name, params, snapshot), so both sides agree on every codec.
//
// Codec contract: DecodePayload(EncodePayload(p)) must be semantically
// identical to p — same concrete type (protocol type switches must
// match) and same content as seen by the protocol and by Sizer. The
// payload size (Sizer) is always charged sender-side on the original
// value, so encoding never affects volume accounting.
type Program interface {
	// NewNode returns the protocol for the node at global snapshot
	// index i.
	NewNode(i int) Protocol
	// EncodePayload serializes an outgoing payload. It is called once
	// per outbox entry (broadcast copies share the encoding).
	EncodePayload(p any) ([]byte, error)
	// DecodePayload rebuilds a payload on the receiving side.
	DecodePayload(data []byte) (any, error)
	// EncodeOutput serializes node i's final output from its protocol.
	EncodeOutput(i int, p Protocol) ([]byte, error)
	// DecodeOutput rebuilds node i's output on the coordinator.
	DecodeOutput(i int, data []byte) (any, error)
}

// ProgramFactory builds a Program for one run over the given snapshot.
// params is the program's opaque configuration, produced by the
// coordinator-side caller and shipped verbatim to every shard.
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
