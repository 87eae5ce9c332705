package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// These tests pin the partitioned runtime's headline property: a
// partitioned run is observationally identical to a LOCAL engine run —
// same outputs, same Result counters, same RoundStats and FaultStats
// streams — for every shard count, fault-free and under fault plans.
// The LocalLink transport is used so the comparison isolates the
// runtime's ordering and codec semantics from the wire (internal/wire
// has its own tests, and the cross-check suite in internal/core runs
// real child processes).

// partRecorder extends recordingObserver with the fault and wire
// callbacks, capturing everything a partitioned run can report.
type partRecorder struct {
	recordingObserver
	faults    []FaultStats
	wireCalls int
}

func (f *partRecorder) FaultRound(fs FaultStats) {
	f.faults = append(f.faults, fs)
}

func (f *partRecorder) WireRound(round int, in, out int64) {
	f.wireCalls++
}

func newPartRecorder() *partRecorder {
	r := &partRecorder{}
	r.shardStarts = make(map[int]int)
	r.shardEnds = make(map[int]int)
	return r
}

// samePartKnowledge requires a and b, knowledge on ix, to agree on
// every observable: identity, member set, regime, and index-space
// membership.
func samePartKnowledge(t *testing.T, at string, ix *graph.Indexed, a, b *Knowledge) {
	t.Helper()
	if a.Center != b.Center || a.Radius != b.Radius || a.Size() != b.Size() {
		t.Fatalf("%s: knowledge header (%d, %d, %d) != (%d, %d, %d)",
			at, a.Center, a.Radius, a.Size(), b.Center, b.Radius, b.Size())
	}
	if (a.seen == nil) != (b.seen == nil) {
		t.Fatalf("%s: dense regime %v != %v", at, a.seen != nil, b.seen != nil)
	}
	if am, bm := a.AppendMembers(nil), b.AppendMembers(nil); !slices.Equal(am, bm) {
		t.Fatalf("%s: members %v != %v", at, am, bm)
	}
	for i := range int32(ix.NumNodes()) {
		if a.KnownIdx(i) != b.KnownIdx(i) {
			t.Fatalf("%s: KnownIdx(%d) %v != %v", at, i, a.KnownIdx(i), b.KnownIdx(i))
		}
	}
}

func sameResult(t *testing.T, at string, a, b *Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Volume != b.Volume {
		t.Fatalf("%s: result (rounds %d, msgs %d, vol %d) != (rounds %d, msgs %d, vol %d)",
			at, a.Rounds, a.Messages, a.Volume, b.Rounds, b.Messages, b.Volume)
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated ||
		a.DeadLetters != b.DeadLetters || a.Stall != b.Stall {
		t.Fatalf("%s: fault counters (%d, %d, %d, %d) != (%d, %d, %d, %d)", at,
			a.Dropped, a.Duplicated, a.DeadLetters, a.Stall,
			b.Dropped, b.Duplicated, b.DeadLetters, b.Stall)
	}
}

// shardOf returns, by snapshot index, the shard hosting each node of ix
// in a parts-shard partition of SplitRange's ranges.
func shardOf(ix *graph.Indexed, parts int) []int {
	shard := make([]int, ix.NumNodes())
	for s, rg := range SplitRange(ix.NumNodes(), parts) {
		for _, i := range ix.BFSOrder()[rg.Lo:rg.Hi] {
			shard[i] = s
		}
	}
	return shard
}

// relabelledChordal is a random chordal graph under a random
// relabelling, so its BFS order is far from index order and, at 3 and
// more shards, some nodes have neighbors on three shards.
func relabelledChordal(n int, seed int64) *graph.Graph {
	g, _ := gen.RelabelRandom(gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, seed), seed)
	return g
}

func TestPartitionedFloodMatchesLocal(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal":    gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 11),
		"path":       gen.Path(40),
		"relabelled": relabelledChordal(120, 11),
	}
	for name, g := range graphs {
		ix := graph.NewIndexed(g)
		for _, radius := range []int{0, 1, 4} {
			lObs := newPartRecorder()
			lKs, lRes, err := Flood(ix, radius, RunOpts{Observer: lObs})
			if err != nil {
				t.Fatalf("%s r=%d: local flood: %v", name, radius, err)
			}
			for _, parts := range []int{1, 2, 3, 4, 5} {
				pObs := newPartRecorder()
				part := NewLocalPartition(ix, parts)
				pKs, pRes, err := Flood(ix, radius, RunOpts{Observer: pObs, Part: part})
				if err != nil {
					t.Fatalf("%s r=%d p=%d: partitioned flood: %v", name, radius, parts, err)
				}
				at := fmt.Sprintf("%s/r%d/parts%d", name, radius, parts)
				sameResult(t, at, lRes, pRes)
				for i := range lKs {
					samePartKnowledge(t, at, ix, lKs[i], pKs[i])
				}
				if !reflect.DeepEqual(scheduleFree(lObs.rounds), scheduleFree(pObs.rounds)) {
					t.Fatalf("%s: round stats diverge:\nlocal: %+v\npart:  %+v",
						at, lObs.rounds, pObs.rounds)
				}
				if !reflect.DeepEqual(lObs.runEnds, pObs.runEnds) {
					t.Fatalf("%s: RunEnd %v != %v", at, lObs.runEnds, pObs.runEnds)
				}
				if pObs.wireCalls != 0 {
					t.Fatalf("%s: LocalLink partition fired %d WireRound calls, want 0", at, pObs.wireCalls)
				}
			}
		}
	}
}

func TestPartitionedFloodFaultyMatchesLocal(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal":    gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 17),
		"relabelled": relabelledChordal(100, 17),
	}
	for name, g := range graphs {
		ix := graph.NewIndexed(g)
		for _, spec := range []string{
			"drop=0.2",
			"dup=0.3",
			"delay=2,dup=0.1",
			"drop=0.15,dup=0.1,delay=1",
		} {
			f, err := ParseFaults(spec, 41)
			if err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			lObs := newPartRecorder()
			lKs, lRes, err := Flood(ix, 3, RunOpts{Observer: lObs, Faults: f})
			if err != nil {
				t.Fatalf("%s %q: local flood: %v", name, spec, err)
			}
			for _, parts := range []int{2, 3, 4} {
				at := fmt.Sprintf("%s %q p=%d", name, spec, parts)
				pf, err := ParseFaults(spec, 41)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				pObs := newPartRecorder()
				part := NewLocalPartition(ix, parts)
				pKs, pRes, err := Flood(ix, 3, RunOpts{Observer: pObs, Faults: pf, Part: part})
				if err != nil {
					t.Fatalf("%s: partitioned flood: %v", at, err)
				}
				sameResult(t, at, lRes, pRes)
				for i := range lKs {
					samePartKnowledge(t, at, ix, lKs[i], pKs[i])
				}
				if !reflect.DeepEqual(lObs.faults, pObs.faults) {
					t.Fatalf("%s: fault stats diverge:\nlocal: %+v\npart:  %+v",
						at, lObs.faults, pObs.faults)
				}
				if !reflect.DeepEqual(scheduleFree(lObs.rounds), scheduleFree(pObs.rounds)) {
					t.Fatalf("%s: round stats diverge", at)
				}
			}
		}
	}
}

// TestPartitionedCrashBlockedMatchesLocal: a run that can no longer
// finish names the lowest-index crashed node, LOCAL and on 3 shards. On
// the path one node crashes. On its relabelling two do, and the
// lower-index one sits on a higher shard than the other and crashes
// later, so a diagnosis taken from the lowest shard would name the
// wrong node and round.
func TestPartitionedCrashBlockedMatchesLocal(t *testing.T) {
	path := graph.NewIndexed(gen.Path(20))
	g, _ := gen.RelabelRandom(gen.Path(20), 3)
	relabelled := graph.NewIndexed(g)
	shard := shardOf(relabelled, 3)
	low := slices.Index(shard, 2) // the lowest index on the last shard
	high := -1                    // a higher index on the first shard
	for i := low + 1; i < len(shard) && high < 0; i++ {
		if shard[i] == 0 {
			high = i
		}
	}
	if low < 0 || high < 0 {
		t.Fatalf("relabelled path: no index on shard 0 above the lowest index %d on shard 2", low)
	}
	for _, c := range []struct {
		name string
		ix   *graph.Indexed
		spec string
		want string
	}{
		{"path", path, fmt.Sprintf("crash=%d@1", path.IDOf(7)),
			fmt.Sprintf("node %d crashed at round 1 and cannot finish", path.IDOf(7))},
		{"relabelled", relabelled, fmt.Sprintf("crash=%d@2,crash=%d@1", relabelled.IDOf(low), relabelled.IDOf(high)),
			fmt.Sprintf("node %d crashed at round 2 and cannot finish", relabelled.IDOf(low))},
	} {
		f, err := ParseFaults(c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, _, lErr := Flood(c.ix, 3, RunOpts{Faults: f})
		if lErr == nil {
			t.Fatalf("%s: local flood survived a crashed node", c.name)
		}
		pf, err := ParseFaults(c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		part := NewLocalPartition(c.ix, 3)
		_, _, pErr := Flood(c.ix, 3, RunOpts{Faults: pf, Part: part})
		if pErr == nil {
			t.Fatalf("%s: partitioned flood survived a crashed node", c.name)
		}
		if lErr.Error() != pErr.Error() {
			t.Fatalf("%s: crash-blocked errors diverge:\nlocal: %v\npart:  %v", c.name, lErr, pErr)
		}
		if !strings.Contains(pErr.Error(), c.want) {
			t.Fatalf("%s: crash-blocked error %v, want %q", c.name, pErr, c.want)
		}
	}
}

// cutCounter wraps a node's protocol and counts the copies each of its
// steps queues to neighbors on another shard.
type cutCounter struct {
	Protocol
	shard  []int
	copies int
}

func (c *cutCounter) Init(ctx *Context) {
	c.Protocol.Init(ctx)
	c.count(ctx)
}

func (c *cutCounter) Round(ctx *Context, inbox []Message) {
	c.Protocol.Round(ctx, inbox)
	c.count(ctx)
}

func (c *cutCounter) count(ctx *Context) {
	for _, to := range ctx.out[ctx.Round()&1].targets {
		targets := []int32{to}
		if to == broadcastTarget {
			targets = ctx.nbrIdx
		}
		for _, u := range targets {
			if c.shard[u] != c.shard[ctx.idx] {
				c.copies++
			}
		}
	}
}

// blockSpy is a ShardLink that keeps a copy of every block its shard
// writes; the test parses them once the run is over.
type blockSpy struct {
	ShardLink
	blocks [][]byte
}

func (l *blockSpy) Step(round int) (*ShardStepResult, error) {
	res, err := l.ShardLink.Step(round)
	if err == nil {
		for _, b := range res.Blocks {
			l.blocks = append(l.blocks, slices.Clone(b))
		}
	}
	return res, err
}

// TestPartitionBlocksCarryOnlyTheCut: shards host chunks of the BFS
// order, so on the relabelled hub tree of the benchmark's wire workload
// the arcs between 2 shards — the cut — are at most 1% of the arcs, and
// a flood writes into blocks exactly the copies it sends along them.
func TestPartitionBlocksCarryOnlyTheCut(t *testing.T) {
	g, _ := gen.RelabelRandom(gen.HubTree(7, 20), 1)
	ix := graph.NewIndexed(g)
	shard := shardOf(ix, 2)
	cut, arcs := 0, 0
	for i := range ix.NumNodes() {
		for _, u := range ix.NeighborIndices(i) {
			arcs++
			if shard[u] != shard[i] {
				cut++
			}
		}
	}
	if cut*100 > arcs {
		t.Fatalf("the 2-shard cut holds %d of %d arcs, want at most 1%%", cut, arcs)
	}

	const radius = 3
	prog := newFloodProgram(ix, radius)
	counters := make([]*cutCounter, ix.NumNodes())
	nodes := NodeFunc(func(i int) Protocol {
		counters[i] = &cutCounter{Protocol: prog.NewNode(i), shard: shard}
		return counters[i]
	})
	if _, _, err := Run(ix, nodes, RunOpts{}, radius+1); err != nil {
		t.Fatal(err)
	}
	cutCopies := 0
	for _, c := range counters {
		cutCopies += c.copies
	}

	part := NewLocalPartition(ix, 2)
	spies := make([]*blockSpy, len(part.Links))
	for s, l := range part.Links {
		spies[s] = &blockSpy{ShardLink: l}
		part.Links[s] = spies[s]
	}
	if _, _, err := Flood(ix, radius, RunOpts{Part: part}); err != nil {
		t.Fatal(err)
	}
	blockCopies := 0
	for _, s := range spies {
		for _, b := range s.blocks {
			for _, e := range parseBlock(t, b) {
				blockCopies += len(e.targets)
			}
		}
	}
	if cutCopies == 0 || blockCopies != cutCopies {
		t.Fatalf("the flood wrote %d copies into blocks and sent %d along the %d cut arcs; want equal and nonzero",
			blockCopies, cutCopies, cut)
	}
}

func TestPartitionedRetransMatchesLocal(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 23)
	ix := graph.NewIndexed(g)
	const radius, budget = 3, 200
	for _, spec := range []string{"", "drop=0.2"} {
		var f, pf *Faults
		var err error
		if spec != "" {
			if f, err = ParseFaults(spec, 13); err != nil {
				t.Fatal(err)
			}
			if pf, err = ParseFaults(spec, 13); err != nil {
				t.Fatal(err)
			}
		}
		lKs, lRes, err := FloodRetrans(ix, radius, budget, RunOpts{Faults: f})
		if err != nil {
			t.Fatalf("%q: local retrans: %v", spec, err)
		}
		part := NewLocalPartition(ix, 4)
		pKs, pRes, err := FloodRetrans(ix, radius, budget, RunOpts{Faults: pf, Part: part})
		if err != nil {
			t.Fatalf("%q: partitioned retrans: %v", spec, err)
		}
		sameResult(t, spec, lRes, pRes)
		for i := range lKs {
			samePartKnowledge(t, spec, ix, lKs[i], pKs[i])
		}
	}
}

// startSpy is a ShardLink that counts the runs started on it.
type startSpy struct {
	ShardLink
	starts int
}

func (l *startSpy) Start(cfg ShardConfig) error {
	l.starts++
	return l.ShardLink.Start(cfg)
}

// TestPartitionedRunNeedsCodecs: only a partitioned run needs the
// Program codecs, so nodes without them run LOCAL, and on a partition
// fail with an error naming their type before any shard starts.
func TestPartitionedRunNeedsCodecs(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(10))
	nodes := NodeFunc(func(int) Protocol { return &countingProtocol{limit: 2} })
	if _, _, err := Run(ix, nodes, RunOpts{}, 5); err != nil {
		t.Fatalf("LOCAL run: %v", err)
	}
	part := NewLocalPartition(ix, 2)
	spy := &startSpy{ShardLink: part.Links[0]}
	part.Links[0] = spy
	_, _, err := Run(ix, nodes, RunOpts{Part: part}, 5)
	if err == nil || !strings.Contains(err.Error(), "dist.NodeFunc has no codecs") {
		t.Fatalf("partitioned run of a NodeFunc: %v", err)
	}
	if spy.starts != 0 {
		t.Fatalf("%d shard runs started before the error", spy.starts)
	}
}

func TestSplitRange(t *testing.T) {
	cases := []struct {
		n, parts int
		want     []PartRange
	}{
		{10, 3, []PartRange{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, []PartRange{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, []PartRange{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, []PartRange{{0, 5}}},
		{5, 0, []PartRange{{0, 5}}},
	}
	for _, c := range cases {
		got := SplitRange(c.n, c.parts)
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("SplitRange(%d, %d) = %v, want %v", c.n, c.parts, got, c.want)
		}
	}
}

// floodShardRunner starts shard 0 of a 2-shard flood over a 6-node path.
func floodShardRunner(t *testing.T) *ShardRunner {
	t.Helper()
	ix := graph.NewIndexed(gen.Path(6))
	_, params, err := newFloodProgram(ix, 1).Params()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewShardRunner(ix, ShardConfig{Shard: 0, Ranges: SplitRange(ix.NumNodes(), 2), Program: "flood", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestShardRunnerDeliverBeforeStep(t *testing.T) {
	r := floodShardRunner(t)
	if _, err := r.Deliver(0, make([][]byte, 2)); err == nil || !strings.Contains(err.Error(), "without a step to deliver them to") {
		t.Fatalf("Deliver before Step: %v", err)
	}
}

// TestShardRunnerRejectsStaleDeliver: a shard accepts the blocks of the
// round it last stepped, once, and not those of an earlier or a later
// round.
func TestShardRunnerRejectsStaleDeliver(t *testing.T) {
	r := floodShardRunner(t)
	none := make([][]byte, 2)
	for round := range 2 {
		if res := r.Step(round); res.Err != "" {
			t.Fatal(res.Err)
		}
		for _, stale := range []int{round - 1, round + 1} {
			want := fmt.Sprintf("got the blocks of round %d after stepping round %d", stale, round)
			if _, err := r.Deliver(stale, none); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Deliver of round %d after stepping round %d: %v", stale, round, err)
			}
		}
		if _, err := r.Deliver(round, none); err != nil {
			t.Fatalf("Deliver of round %d: %v", round, err)
		}
		if _, err := r.Deliver(round, none); err == nil || !strings.Contains(err.Error(), "without a step to deliver them to") {
			t.Fatalf("second Deliver of round %d: %v", round, err)
		}
	}
}

// roundSpy is a ShardLink that reports every step result one round
// ahead, as a shard out of step with the coordinator would.
type roundSpy struct{ ShardLink }

func (l roundSpy) Step(round int) (*ShardStepResult, error) {
	res, err := l.ShardLink.Step(round)
	if err == nil {
		res.Round++
	}
	return res, err
}

// TestCoordinatorChecksStepRound: the coordinator rejects a step result
// for another round than the one it asked for, naming the shard and both
// rounds.
func TestCoordinatorChecksStepRound(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(10))
	part := NewLocalPartition(ix, 2)
	part.Links[1] = roundSpy{part.Links[1]}
	_, _, err := Flood(ix, 2, RunOpts{Part: part})
	if err == nil || !strings.HasSuffix(err.Error(), "dist: shard 1 returned the result of round 1 for round 0") {
		t.Fatalf("Flood over a shard out of step: %v", err)
	}
}

// fakeLink is a ShardLink whose Start runs the test's hook; exchange
// calls nothing else.
type fakeLink struct {
	ShardLink
	start func() error
}

func (l *fakeLink) Start(ShardConfig) error { return l.start() }

// TestExchange: exchange calls every link exactly once, runs the calls
// concurrently — a call that waits for another link's call to start
// does not deadlock — and returns the lowest failing shard's error even
// when a higher shard fails first.
func TestExchange(t *testing.T) {
	const n = 4
	var calls [n]atomic.Int32
	started := make([]chan struct{}, n)
	for s := range started {
		started[s] = make(chan struct{})
	}
	links := make([]ShardLink, n)
	for s := range links {
		links[s] = &fakeLink{start: func() error {
			calls[s].Add(1)
			close(started[s])
			// Each call waits for the next link's call to start, and the
			// last for the first's: only concurrent calls get past this.
			<-started[(s+1)%n]
			return nil
		}}
	}
	errs := make([]error, n)
	call := func(_ int, l ShardLink) error { return l.Start(ShardConfig{}) }
	done := make(chan error, 1)
	go func() { done <- exchange(links, errs, call) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("exchange deadlocked: its calls do not run concurrently")
	}
	for s := range calls {
		if got := calls[s].Load(); got != 1 {
			t.Fatalf("link %d called %d times, want 1", s, got)
		}
	}

	// Shard 3 fails at once, shard 1 only once shard 3 has failed: the
	// error returned is still shard 1's.
	failed3 := make(chan struct{})
	for s := range links {
		links[s] = &fakeLink{start: func() error {
			switch s {
			case 1:
				<-failed3
				return errors.New("shard 1 failed")
			case 3:
				defer close(failed3)
				return errors.New("shard 3 failed")
			}
			return nil
		}}
	}
	if err := exchange(links, errs, call); err == nil || err.Error() != "shard 1 failed" {
		t.Fatalf("exchange returned %v, want shard 1's error", err)
	}
}

// orderPayload is the inbox-order test program's payload: its sender's
// index and the payload's place in the sender's queue.
type orderPayload struct{ from, seq int }

// orderNode queues, in each of steps 0–2, a Broadcast and then one Send
// to every neighbor in descending index order, so one sender's copies to
// a target span several queue entries; it logs every inbox of rounds
// 1–3 as "from:seq" items.
type orderNode struct {
	idx  int
	log  strings.Builder
	done bool
}

func (p *orderNode) Init(ctx *Context) { p.send(ctx) }

func (p *orderNode) Round(ctx *Context, inbox []Message) {
	if p.done {
		return
	}
	for _, m := range inbox {
		pl := m.Payload.(*orderPayload)
		fmt.Fprintf(&p.log, "%d:%d ", pl.from, pl.seq)
	}
	p.log.WriteString("| ")
	if ctx.Round() < 3 {
		p.send(ctx)
	} else {
		p.done = true
	}
}

func (p *orderNode) send(ctx *Context) {
	seq := 4 * ctx.Round() * len(ctx.Neighbors())
	ctx.Broadcast(&orderPayload{from: p.idx, seq: seq})
	nbrs := ctx.Neighbors()
	for k := len(nbrs) - 1; k >= 0; k-- {
		seq++
		ctx.Send(nbrs[k], &orderPayload{from: p.idx, seq: seq})
	}
}

func (p *orderNode) Done() bool  { return p.done }
func (p *orderNode) Output() any { return p.log.String() }

// orderProgram hosts orderNode in the partitioned runtime.
type orderProgram struct{}

func (orderProgram) NewNode(i int) Protocol          { return &orderNode{idx: i} }
func (orderProgram) Params() (string, []byte, error) { return "order-test", nil, nil }

func (orderProgram) EncodePayload(p any) ([]byte, error) {
	pl := p.(*orderPayload)
	return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(pl.from)), uint64(pl.seq)), nil
}

func (orderProgram) DecodePayload(data []byte) (any, error) {
	from, n := binary.Uvarint(data)
	seq, m := binary.Uvarint(data[max(n, 0):])
	if n <= 0 || m <= 0 || n+m != len(data) {
		return nil, fmt.Errorf("order payload of %d bytes", len(data))
	}
	return &orderPayload{from: int(from), seq: int(seq)}, nil
}

func (orderProgram) EncodeOutput(_ int, p Protocol) ([]byte, error) {
	return []byte(p.Output().(string)), nil
}

func (orderProgram) DecodeOutput(_ int, data []byte) (any, error) { return string(data), nil }

func init() {
	RegisterProgram("order-test", func(*graph.Indexed, []byte) (Program, error) { return orderProgram{}, nil })
}

// TestPartitionedInboxOrderMatchesLocal: every inbox of a partitioned
// run holds its copies in the LOCAL engine's (sender index, queue
// position) order — each sender's copies in queue order, a duplicate
// next to its original — on a relabelled graph whose nodes have
// neighbors on up to four shards, fault-free and under fault plans.
func TestPartitionedInboxOrderMatchesLocal(t *testing.T) {
	ix := graph.NewIndexed(relabelledChordal(80, 9))
	faults := func(spec string) *Faults {
		if spec == "" {
			return nil
		}
		f, err := ParseFaults(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, spec := range []string{"", "dup=0.5", "drop=0.2,dup=0.3,delay=2"} {
		lOuts, lRes, err := Run(ix, orderProgram{}, RunOpts{Faults: faults(spec)}, 5)
		if err != nil {
			t.Fatalf("%q: local run: %v", spec, err)
		}
		for _, parts := range []int{2, 3, 4} {
			at := fmt.Sprintf("%q p=%d", spec, parts)
			pOuts, pRes, err := Run(ix, orderProgram{}, RunOpts{Faults: faults(spec), Part: NewLocalPartition(ix, parts)}, 5)
			if err != nil {
				t.Fatalf("%s: partitioned run: %v", at, err)
			}
			sameResult(t, at, lRes, pRes)
			for i := range lOuts {
				if lOuts[i] != pOuts[i] {
					t.Fatalf("%s: node %d's inboxes differ:\nlocal: %v\npart:  %v", at, i, lOuts[i], pOuts[i])
				}
			}
		}
	}
}
