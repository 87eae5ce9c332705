// Package obs is the repo's observability layer: per-round tracing,
// trace summaries, and pprof wiring for the LOCAL simulator.
//
// The simulation core (internal/dist, internal/core, internal/peel)
// never reads the wall clock — the LOCAL model measures time in rounds,
// and the chordalvet wallclock analyzer enforces the invariant. All
// timing therefore lives here: the core reports rounds, faults, wire
// bytes, phase labels and kernel spans through the one observer
// contract, dist.RoundObserver, and the Collector in this package
// stamps those callbacks with wall times itself. internal/obs is the one
// package under internal/ that chordalvet sanctions as a clock user.
//
// A Collector aggregates engine events into an in-memory per-round table
// (and per-phase summaries) and optionally streams one JSON object per
// round to a JSONL trace writer. Attaching a nil observer to an engine
// is the documented zero-cost fast path; attaching a Collector costs a
// handful of clock reads per round, never per node.
//
// This package is also the one place that decides which parts of a
// trace are deterministic: DeterministicRecords and DiffDeterministic
// (diff.go) compare two traces on the fields that are pure functions of
// (graph, protocol, seed, fault plan).
package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
)

// SchemaVersion is the value of every trace event's "v" field. Bump it
// when an existing field changes meaning; adding fields is backward
// compatible and does not bump it.
//
// v2 (fault injection): round events gain the optional fault fields
// dropped/duplicated/dead_letters/stall/crashed, and wall_ns is omitted
// when zero (it was previously always present). v1 readers that ignore
// unknown fields and treat a missing wall_ns as 0 read v2 traces
// correctly.
//
// v3 (deep kernel metrics): three new record kinds — "kernel" spans
// from the sharded compute kernels (per-worker busy times and item
// counts), "phase" timeline spans emitted when the phase label changes
// (wall-clock attribution plus p50/p99 round latency), and opt-in "mem"
// heap/GC snapshots at phase boundaries — plus the optional t_ns offset
// on round events. Every new field is omitempty and every new kind is
// additive, so a v2 reader that ignores unknown kinds and fields reads
// v3 traces correctly. All three new kinds are schedule/hardware
// measurements by definition, so DiffDeterministic ignores them.
const SchemaVersion = 3

// Event kinds. One "round" event is emitted per engine step (the Init
// step is round 0); "layer" events come from the peeling process via
// Collector.PeelTrace; "kernel" events are per-launch spans of the
// sharded compute kernels (schema v3); "phase" events are wall-clock
// timeline spans emitted when the phase label changes (schema v3);
// "mem" events are opt-in heap/GC snapshots at phase boundaries
// (schema v3, see Collector.SetMemStats).
const (
	KindRound  = "round"
	KindLayer  = "layer"
	KindKernel = "kernel"
	KindPhase  = "phase"
	KindMem    = "mem"
)

// Event is one JSONL trace record and one row of the Collector's
// in-memory table. All fields except the wall/busy timings are pure
// functions of (graph, protocol) and identical for every engine range
// count and runtime; Shards describes the schedule and timings describe
// the hardware.
type Event struct {
	V     int    `json:"v"`
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"`
	// Run is the 0-based ordinal of the engine run under this Collector
	// (a pruning phase drives many runs through one Collector).
	Run int `json:"run"`
	// Round is the step index within the run: 0 for Init, then the
	// 1-based communication round. For layer events it is the peeling
	// iteration.
	Round int `json:"round"`

	// Round-event fields (see dist.RoundStats).
	Nodes    int `json:"nodes,omitempty"`
	Shards   int `json:"shards,omitempty"`
	Messages int `json:"messages"`
	Volume   int `json:"volume"`
	Done     int `json:"done"`
	MaxInbox int `json:"max_inbox"`

	// Fault fields (schema v2): the round's fault-injection activity, all
	// omitted when the engine has no fault schedule or the schedule did
	// nothing this round (see dist.FaultStats).
	Dropped     int        `json:"dropped,omitempty"`
	Duplicated  int        `json:"duplicated,omitempty"`
	DeadLetters int        `json:"dead_letters,omitempty"`
	Stall       int        `json:"stall,omitempty"`
	Crashed     []graph.ID `json:"crashed,omitempty"`

	// Wire fields (schema v3, additive): bytes moved between the
	// coordinator and its shard hosts during this round, present only on
	// partitioned runs with metered links (see dist.WireMeter). They
	// measure the transport, not the protocol, so DiffDeterministic
	// ignores them and a partitioned trace diffs clean against the
	// LOCAL one.
	WireInB  int64 `json:"wire_in_b,omitempty"`
	WireOutB int64 `json:"wire_out_b,omitempty"`

	// WallNS is the wall time of the step: node programs plus message
	// delivery, RoundStart to RoundEnd. BusyNS[s] is worker shard s's
	// busy time within the step (absent in per-node mode).
	WallNS int64   `json:"wall_ns,omitempty"`
	BusyNS []int64 `json:"busy_ns,omitempty"`

	// Layer-event fields (see peel.LayerEvent).
	PendantPaths  int `json:"pendant_paths,omitempty"`
	InternalPaths int `json:"internal_paths,omitempty"`
	NodesPeeled   int `json:"nodes_peeled,omitempty"`
	ForestCliques int `json:"forest_cliques,omitempty"`
	Remaining     int `json:"remaining,omitempty"`

	// TNS (schema v3) is the event's start offset in nanoseconds from
	// the Collector's creation: the round start for round events, the
	// launch for kernel events, the span start for phase events, the
	// snapshot instant for mem events.
	TNS int64 `json:"t_ns,omitempty"`

	// Kernel-event fields (schema v3): one event per sharded-kernel
	// launch. Kernel names the kernel ("decide", "peel-measure",
	// "color-paths", "mis-components", "correction-setup"); Shards and
	// BusyNS carry the per-worker spans exactly as for engine rounds;
	// Items[s] counts the work items shard s processed (their sum is the
	// event's Nodes); WallNS is the whole launch. The imbalance ratio of
	// a launch is max(BusyNS)/mean(BusyNS) — cmd/tracestat computes it.
	Kernel       string  `json:"kernel,omitempty"`
	Items        []int64 `json:"items,omitempty"`
	ShardStartNS []int64 `json:"shard_start_ns,omitempty"`

	// Phase-event fields (schema v3): the span aggregates every round
	// event the closed phase saw. Runs/Rounds mirror PhaseAgg;
	// Messages and Volume reuse the round fields above; WallNS is the
	// wall-clock width of the span (SetPhase to SetPhase, so centralized
	// kernel time between engine runs is attributed too); P50NS/P99NS
	// are round-latency quantiles from the phase's streaming Hist.
	Runs   int   `json:"runs,omitempty"`
	Rounds int   `json:"rounds,omitempty"`
	P50NS  int64 `json:"p50_ns,omitempty"`
	P99NS  int64 `json:"p99_ns,omitempty"`

	// Mem-event fields (schema v3): a runtime.MemStats excerpt taken at
	// a phase boundary (never mid-round — ReadMemStats stops the world,
	// which is why the snapshots are opt-in, see SetMemStats).
	HeapAllocB   uint64 `json:"heap_alloc_b,omitempty"`
	HeapObjects  uint64 `json:"heap_objects,omitempty"`
	TotalAllocB  uint64 `json:"total_alloc_b,omitempty"`
	NumGC        uint32 `json:"num_gc,omitempty"`
	PauseTotalNS uint64 `json:"pause_total_ns,omitempty"`
}

// Collector implements dist.RoundObserver: it stamps engine and kernel
// callbacks with wall times, keeps every event in memory, and
// optionally streams them as JSONL.
//
// One Collector may observe many engine runs sequentially (calls to
// SetPhase between runs label the trace); a single run's ShardStart and
// ShardEnd arrive concurrently from worker goroutines, which is safe
// because distinct shard indices write distinct pre-sized slots.
type Collector struct {
	mu     sync.Mutex
	now    func() time.Time // injectable for tests; time.Now by default
	enc    *json.Encoder    // nil when not tracing
	encErr error

	phase  string
	run    int // ordinal of the current/next engine run
	events []Event

	// In-flight round state. Written by the engine's driving goroutine;
	// shard slots are written by worker goroutines (distinct indices).
	roundStart time.Time
	shardStart []time.Time
	shardBusy  []int64

	// pendingFault holds the fault stats the engine reported for the
	// round whose RoundEnd has not arrived yet (FaultRound fires first,
	// on the same goroutine).
	pendingFault *dist.FaultStats

	// pendingWire holds the wire byte deltas a partitioned coordinator
	// reported for the in-flight round (WireRound fires just before the
	// matching RoundEnd, on the same goroutine, like FaultRound).
	pendingWire *[3]int64

	// start anchors every TNS offset (schema v3); SetClock re-stamps it
	// so fake-clock tests get small deterministic offsets.
	start time.Time

	// memstats enables the opt-in per-phase heap/GC snapshots.
	memstats bool

	// Current-phase aggregation for the v3 phase timeline spans,
	// reset at every SetPhase transition (and flushed by Finish).
	phaseStart time.Time
	phRuns     int
	phLastRun  int
	phRounds   int
	phMessages int
	phVolume   int
	phEvents   int // round/layer/kernel events seen in this phase
	phHist     Hist

	// In-flight kernel launch (launches never nest, see the
	// dist.RoundObserver concurrency contract). Shard slots
	// are written lock-free by worker goroutines, exactly like the
	// engine-round shard slots above.
	kernelName  string
	kernelStart time.Time
	kShardStart []time.Time
	kBusy       []int64
	kItems      []int64
}

// NewCollector returns a Collector that keeps events in memory only.
func NewCollector() *Collector {
	c := &Collector{now: time.Now, phLastRun: -1}
	c.start = c.now()
	c.phaseStart = c.start
	return c
}

// SetTrace streams every subsequent event to w as JSONL (one JSON object
// per line). The caller owns w and any buffering/closing.
func (c *Collector) SetTrace(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc = json.NewEncoder(w)
}

// SetClock substitutes the wall-clock source (tests use a fake clock to
// make timings deterministic) and re-anchors the TNS origin on it. Call
// it before any events arrive.
func (c *Collector) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
	c.start = c.now()
	c.phaseStart = c.start
}

// SetPhase implements dist.RoundObserver: it labels subsequent events
// with a phase name. Callers set it between engine runs. A transition
// closes the previous phase's timeline span: if that phase produced any
// events, one "phase" record (and, with SetMemStats on, one "mem"
// snapshot) is emitted before the label changes.
func (c *Collector) SetPhase(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == c.phase {
		return
	}
	c.closePhaseLocked()
	c.phase = name
}

// SetMemStats enables the per-phase heap/GC snapshots: at every phase
// boundary (SetPhase transitions and Finish) the Collector calls
// runtime.ReadMemStats — a stop-the-world operation, which is why the
// snapshots are opt-in and happen at phase boundaries only, never per
// round — and emits one "mem" record under the closing phase's label.
func (c *Collector) SetMemStats(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memstats = on
}

// Finish closes the trailing phase span (emitting its "phase" record
// and, with SetMemStats on, the final "mem" snapshot) and reports the
// first trace-write error. Call it once after the workload; any later
// events simply start a fresh span.
func (c *Collector) Finish() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closePhaseLocked()
	return c.encErr
}

// closePhaseLocked flushes the current phase's timeline span and resets
// the per-phase aggregation. Callers hold c.mu.
func (c *Collector) closePhaseLocked() {
	now := c.now()
	if c.phEvents > 0 {
		c.emit(Event{
			V:        SchemaVersion,
			Kind:     KindPhase,
			Phase:    c.phase,
			Run:      c.run,
			Runs:     c.phRuns,
			Rounds:   c.phRounds,
			Messages: c.phMessages,
			Volume:   c.phVolume,
			WallNS:   now.Sub(c.phaseStart).Nanoseconds(),
			TNS:      c.phaseStart.Sub(c.start).Nanoseconds(),
			P50NS:    c.phHist.Quantile(0.5),
			P99NS:    c.phHist.Quantile(0.99),
		})
		if c.memstats {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			c.emit(Event{
				V:            SchemaVersion,
				Kind:         KindMem,
				Phase:        c.phase,
				TNS:          c.now().Sub(c.start).Nanoseconds(),
				HeapAllocB:   ms.HeapAlloc,
				HeapObjects:  ms.HeapObjects,
				TotalAllocB:  ms.TotalAlloc,
				NumGC:        ms.NumGC,
				PauseTotalNS: ms.PauseTotalNs,
			})
		}
	}
	c.phaseStart = now
	c.phRuns = 0
	c.phLastRun = -1
	c.phRounds = 0
	c.phMessages = 0
	c.phVolume = 0
	c.phEvents = 0
	c.phHist.Reset()
}

// RoundStart implements dist.RoundObserver: it stamps the round's start
// time and pre-sizes the per-shard busy slots.
func (c *Collector) RoundStart(round, shards int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundStart = c.now()
	if cap(c.shardStart) < shards {
		c.shardStart = make([]time.Time, shards)
		c.shardBusy = make([]int64, shards)
	}
	c.shardStart = c.shardStart[:shards]
	c.shardBusy = c.shardBusy[:shards]
	for i := range c.shardBusy {
		c.shardBusy[i] = 0
	}
}

// ShardStart implements dist.RoundObserver. It may be called from worker
// goroutines; distinct shard indices touch distinct slots, so no lock is
// taken (the slices were sized under the lock in RoundStart, and the
// engine's WaitGroup orders these writes before RoundEnd's reads).
func (c *Collector) ShardStart(shard int) {
	c.shardStart[shard] = c.now()
}

// ShardEnd implements dist.RoundObserver; see ShardStart for the
// concurrency argument.
func (c *Collector) ShardEnd(shard int) {
	c.shardBusy[shard] = c.now().Sub(c.shardStart[shard]).Nanoseconds()
}

// FaultRound implements dist.RoundObserver: the engine reports the
// round's fault activity just before the matching RoundEnd, on the same
// goroutine, so the stats are parked until the round event materializes.
func (c *Collector) FaultRound(stats dist.FaultStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := stats
	c.pendingFault = &s
}

// WireRound implements dist.RoundObserver: a partitioned coordinator
// reports the round's coordinator↔shard byte traffic just before the
// matching RoundEnd, on the same goroutine, so the deltas are parked
// until the round event materializes (exactly like FaultRound).
func (c *Collector) WireRound(round int, in, out int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pendingWire = &[3]int64{int64(round), in, out}
}

// RoundEnd implements dist.RoundObserver: it materializes the round's
// Event (folding in any fault stats the engine reported for this round),
// appends it to the in-memory table, and streams it if tracing.
func (c *Collector) RoundEnd(stats dist.RoundStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := Event{
		V:        SchemaVersion,
		Kind:     KindRound,
		Phase:    c.phase,
		Run:      c.run,
		Round:    stats.Round,
		Nodes:    stats.Nodes,
		Shards:   stats.Shards,
		Messages: stats.Messages,
		Volume:   stats.Volume,
		Done:     stats.Done,
		MaxInbox: stats.MaxInbox,
		WallNS:   c.now().Sub(c.roundStart).Nanoseconds(),
	}
	if len(c.shardBusy) > 0 {
		ev.BusyNS = append([]int64(nil), c.shardBusy...)
	}
	if f := c.pendingFault; f != nil && f.Round == stats.Round {
		ev.Dropped = f.Dropped
		ev.Duplicated = f.Duplicated
		ev.DeadLetters = f.DeadLetters
		ev.Stall = f.Stall
		if len(f.Crashed) > 0 {
			ev.Crashed = append([]graph.ID(nil), f.Crashed...)
		}
		c.pendingFault = nil
	}
	if w := c.pendingWire; w != nil && w[0] == int64(stats.Round) {
		ev.WireInB = w[1]
		ev.WireOutB = w[2]
		c.pendingWire = nil
	}
	ev.TNS = c.roundStart.Sub(c.start).Nanoseconds()
	// Per-phase aggregation for the v3 phase timeline span.
	if c.phLastRun != c.run {
		c.phLastRun = c.run
		c.phRuns++
	}
	c.phRounds++
	c.phMessages += stats.Messages
	c.phVolume += stats.Volume
	c.phHist.Record(ev.WallNS)
	c.emit(ev)
}

// RunEnd implements dist.RoundObserver: it closes out the run ordinal so
// the next engine run under this Collector is distinguishable.
func (c *Collector) RunEnd(rounds int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.run++
}

// KernelStart implements dist.RoundObserver: it stamps the launch and
// pre-sizes the per-shard slots, exactly as RoundStart does for engine
// rounds.
func (c *Collector) KernelStart(kernel string, shards int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kernelName = kernel
	c.kernelStart = c.now()
	if cap(c.kShardStart) < shards {
		c.kShardStart = make([]time.Time, shards)
		c.kBusy = make([]int64, shards)
		c.kItems = make([]int64, shards)
	}
	c.kShardStart = c.kShardStart[:shards]
	c.kBusy = c.kBusy[:shards]
	c.kItems = c.kItems[:shards]
	for i := range c.kBusy {
		c.kShardStart[i] = time.Time{}
		c.kBusy[i] = 0
		c.kItems[i] = 0
	}
}

// KernelShardStart implements dist.RoundObserver. Like ShardStart it
// may be called from worker goroutines; distinct shard indices touch
// distinct slots sized under the lock in KernelStart, and the kernel's
// WaitGroup orders these writes before KernelEnd's reads.
//
//chordalvet:hotpath budget=0 per-shard kernel hooks must stay allocation-free
func (c *Collector) KernelShardStart(shard int) {
	c.kShardStart[shard] = c.now()
}

// KernelShardEnd implements dist.RoundObserver; see KernelShardStart
// for the concurrency argument.
//
//chordalvet:hotpath budget=0 per-shard kernel hooks must stay allocation-free
func (c *Collector) KernelShardEnd(shard, items int) {
	c.kBusy[shard] = c.now().Sub(c.kShardStart[shard]).Nanoseconds()
	c.kItems[shard] = int64(items)
}

// KernelEnd implements dist.RoundObserver: it materializes the
// launch's "kernel" event.
func (c *Collector) KernelEnd() {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now()
	ev := Event{
		V:      SchemaVersion,
		Kind:   KindKernel,
		Phase:  c.phase,
		Run:    c.run,
		Kernel: c.kernelName,
		Shards: len(c.kBusy),
		WallNS: end.Sub(c.kernelStart).Nanoseconds(),
		TNS:    c.kernelStart.Sub(c.start).Nanoseconds(),
		BusyNS: append([]int64(nil), c.kBusy...),
		Items:  append([]int64(nil), c.kItems...),
	}
	starts := make([]int64, len(c.kShardStart))
	total := 0
	for i, ts := range c.kShardStart {
		if !ts.IsZero() {
			starts[i] = ts.Sub(c.start).Nanoseconds()
		}
		total += int(c.kItems[i])
	}
	ev.ShardStartNS = starts
	ev.Nodes = total
	c.emit(ev)
}

// emit appends and streams one event. Callers hold c.mu.
func (c *Collector) emit(ev Event) {
	// Round, layer, and kernel events count as phase activity; the
	// phase/mem records closing a span must not re-open it.
	if ev.Kind == KindRound || ev.Kind == KindLayer || ev.Kind == KindKernel {
		c.phEvents++
	}
	c.events = append(c.events, ev)
	if c.enc != nil {
		if err := c.enc.Encode(ev); err != nil && c.encErr == nil {
			c.encErr = err
		}
	}
}

// Events returns a copy of the in-memory event table.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Compile-time check: Collector is a dist observer.
var _ dist.RoundObserver = (*Collector)(nil)
