package dist

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// TestEmptyGraphAllModes: a node-count-0 network must terminate
// immediately with an empty output map under every GOMAXPROCS setting.
func TestEmptyGraphAllModes(t *testing.T) {
	g := graph.New()
	proctest.Sweep(func(procs int) {
		outs, res, err := runIDs(graph.NewIndexed(g), RunOpts{}, 5, func(v graph.ID) Protocol {
			t.Fatal("factory called for empty graph")
			return nil
		})
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		if res.Rounds != 0 || len(outs) != 0 || res.Messages != 0 {
			t.Errorf("procs %d: empty graph ran %d rounds, %d outputs", procs, res.Rounds, len(outs))
		}
	})
}

// shardsObserver records the shard count RoundStart announces and the
// one RoundEnd reports, per round.
type shardsObserver struct {
	nopObserver
	mu         sync.Mutex
	startByRnd map[int]int
	endByRnd   map[int]int
}

func (o *shardsObserver) RoundStart(round, shards int) {
	o.mu.Lock()
	o.startByRnd[round] = shards
	o.mu.Unlock()
}
func (o *shardsObserver) RoundEnd(stats RoundStats) {
	o.mu.Lock()
	o.endByRnd[stats.Round] = stats.Shards
	o.mu.Unlock()
}

// gomaxprocsProtocol shrinks GOMAXPROCS mid-run (from node 0, round 2).
type gomaxprocsProtocol struct {
	id     graph.ID
	rounds int
	limit  int
	target int
}

func (p *gomaxprocsProtocol) Init(ctx *Context) { ctx.Broadcast(1) }
func (p *gomaxprocsProtocol) Round(ctx *Context, inbox []Message) {
	p.rounds++
	if p.id == 0 && p.rounds == 2 {
		runtime.GOMAXPROCS(p.target)
	}
	if p.rounds < p.limit {
		ctx.Broadcast(1)
	}
}
func (p *gomaxprocsProtocol) Done() bool  { return p.rounds >= p.limit }
func (p *gomaxprocsProtocol) Output() any { return nil }

// TestShardsConsistentUnderGOMAXPROCSChange: the engine fixes its node
// ranges when Run starts, so a GOMAXPROCS change mid-run must not move
// the shard count — every RoundStart and RoundEnd of the run reports
// the count the run started with.
func TestShardsConsistentUnderGOMAXPROCSChange(t *testing.T) {
	proctest.With(4, func() {
		obs := &shardsObserver{startByRnd: make(map[int]int), endByRnd: make(map[int]int)}
		_, res, err := runIDs(graph.NewIndexed(gen.Cycle(100)), RunOpts{Observer: obs}, 10, func(v graph.ID) Protocol {
			return &gomaxprocsProtocol{id: v, limit: 5, target: 2}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.GOMAXPROCS(0); got != 2 {
			t.Fatalf("GOMAXPROCS is %d after the run, want the protocol's 2", got)
		}
		if len(obs.startByRnd) != res.Rounds+1 || len(obs.endByRnd) != res.Rounds+1 {
			t.Fatalf("%d RoundStarts and %d RoundEnds for %d steps", len(obs.startByRnd), len(obs.endByRnd), res.Rounds+1)
		}
		for round := 0; round <= res.Rounds; round++ {
			if start, end := obs.startByRnd[round], obs.endByRnd[round]; start != 4 || end != 4 {
				t.Errorf("round %d: RoundStart announced %d shards, RoundEnd reported %d, want the run's 4", round, start, end)
			}
		}
	})
}

// TestDoneFlipContinuesRun: oscillating nodes next to a late-settling
// node force the run through repeated Done→not-Done transitions (the
// negative delta path) while the run keeps going; the counter must not
// drift under any GOMAXPROCS setting.
func TestDoneFlipContinuesRun(t *testing.T) {
	g := gen.Cycle(12)
	proctest.Sweep(func(procs int) {
		ix := graph.NewIndexed(g)
		_, res, err := runIDs(ix, RunOpts{}, 20, func(v graph.ID) Protocol {
			return &oscillatingProtocol{settle: 7}
		})
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		if res.Rounds != 0 {
			// All-oscillator networks are Done right after Init (round 0
			// counts as even); this pins the baseline the mixed case
			// below must beat.
			t.Fatalf("procs %d: homogeneous oscillators stopped at round %d, want 0", procs, res.Rounds)
		}
		_, res, err = runIDs(ix, RunOpts{}, 20, func(v graph.ID) Protocol {
			if v == 0 {
				return &holdProtocol{until: 7}
			}
			return &oscillatingProtocol{settle: 7}
		})
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		if res.Rounds != 7 {
			t.Errorf("procs %d: mixed network stopped at round %d, want 7 (done counter drifted through the flips)", procs, res.Rounds)
		}
	})
}

// holdProtocol is not Done until a fixed round, sending nothing.
type holdProtocol struct {
	rounds int
	until  int
}

func (p *holdProtocol) Init(ctx *Context)                   {}
func (p *holdProtocol) Round(ctx *Context, inbox []Message) { p.rounds++ }
func (p *holdProtocol) Done() bool                          { return p.rounds >= p.until }
func (p *holdProtocol) Output() any                         { return p.rounds }

// TestSendToNonNodeAllModes: the Send panic must be recovered and
// surfaced as an error from Run under every GOMAXPROCS setting — a
// panicking worker must not leave the range WaitGroup hanging.
func TestSendToNonNodeAllModes(t *testing.T) {
	g := gen.Path(50)
	proctest.Sweep(func(procs int) {
		_, _, err := runIDs(graph.NewIndexed(g), RunOpts{}, 10, func(v graph.ID) Protocol {
			return &sendToProtocol{to: 999}
		})
		if err == nil {
			t.Fatalf("procs %d: send to a non-node did not error", procs)
		}
		if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "which is not a neighbor") {
			t.Errorf("procs %d: error %q does not describe the panic", procs, err)
		}
	})
}

// panicProtocol panics in round 1, naming its node, when armed; unarmed
// nodes finish in round 1.
type panicProtocol struct {
	id   graph.ID
	arm  bool
	done bool
}

func (p *panicProtocol) Init(ctx *Context) {}
func (p *panicProtocol) Round(ctx *Context, inbox []Message) {
	if p.arm {
		panic(fmt.Sprintf("node %d exploded", p.id))
	}
	p.done = true
}
func (p *panicProtocol) Done() bool  { return p.done }
func (p *panicProtocol) Output() any { return nil }

// panicArmed are the snapshot indices panicProgram arms: far apart, so
// every multi-range split puts them in different ranges.
var panicArmed = map[int]bool{10: true, 90: true}

// panicProgram hosts panicProtocol in the partitioned runtime. Its
// nodes send nothing and output nothing, so the codecs are trivial.
type panicProgram struct{ ix *graph.Indexed }

func (p panicProgram) NewNode(i int) Protocol {
	return &panicProtocol{id: p.ix.IDOf(i), arm: panicArmed[i]}
}
func (panicProgram) Params() (string, []byte, error)            { return "panic-test", nil, nil }
func (panicProgram) EncodePayload(any) ([]byte, error)          { return nil, nil }
func (panicProgram) DecodePayload([]byte) (any, error)          { return nil, nil }
func (panicProgram) EncodeOutput(int, Protocol) ([]byte, error) { return nil, nil }
func (panicProgram) DecodeOutput(int, []byte) (any, error)      { return nil, nil }

func init() {
	RegisterProgram("panic-test", func(ix *graph.Indexed, _ []byte) (Program, error) {
		return panicProgram{ix: ix}, nil
	})
}

// TestConcurrentPanicsReportLowestIndex: when nodes in different ranges
// panic in the same round, Run reports the lower-index node's panic —
// the same error text for every GOMAXPROCS setting and for the
// partitioned runtime, because range and shard errors merge by index.
// On the path, BFS order is index order; on its relabelling, index 10
// sits on a higher shard than index 90, so merging in shard order would
// report the wrong node.
func TestConcurrentPanicsReportLowestIndex(t *testing.T) {
	relabelled, _ := gen.RelabelRandom(gen.Path(100), 6)
	for name, g := range map[string]*graph.Graph{"path": gen.Path(100), "relabelled": relabelled} {
		ix := graph.NewIndexed(g)
		shard := shardOf(ix, 3)
		if name == "relabelled" && shard[10] <= shard[90] {
			t.Fatalf("relabelled: index 10 on shard %d, index 90 on shard %d; want 10 on the higher shard", shard[10], shard[90])
		}
		want := fmt.Sprintf("dist: node program panicked: node %d exploded", ix.IDOf(10))
		proctest.Sweep(func(procs int) {
			for attempt := 0; attempt < 20; attempt++ {
				if _, _, err := Run(ix, panicProgram{ix: ix}, RunOpts{}, 5); err == nil || err.Error() != want {
					t.Fatalf("%s procs %d: err = %v, want %q", name, procs, err, want)
				}
			}
		})
		if _, _, err := Run(ix, panicProgram{ix: ix}, RunOpts{Part: NewLocalPartition(ix, 3)}, 5); err == nil || err.Error() != want {
			t.Fatalf("%s partitioned: err = %v, want %q", name, err, want)
		}
	}
}
