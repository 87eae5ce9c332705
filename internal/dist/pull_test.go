package dist

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// inboxLogProtocol sends a round-dependent mix — nothing, one Broadcast
// (the board's inline slot), or several Broadcasts and neighbor Sends
// (its queue path) — and logs every inbox it receives, sender and
// payload, in delivery order.
type inboxLogProtocol struct {
	rounds, limit int
	log           []string
}

func (p *inboxLogProtocol) send(ctx *Context) {
	nbrs := ctx.Neighbors()
	switch (ctx.Round() + int(ctx.ID())) % 4 {
	case 1:
		ctx.Broadcast(ctx.Round())
	case 2:
		ctx.Broadcast(-ctx.Round())
		for i, u := range nbrs {
			if i < 2 {
				ctx.Send(u, 1000+i)
			}
		}
	case 3:
		if len(nbrs) > 0 {
			ctx.Send(nbrs[len(nbrs)-1], 2000)
		}
		ctx.Broadcast(3000)
		ctx.Broadcast(3001)
	}
}

func (p *inboxLogProtocol) Init(ctx *Context) { p.send(ctx) }
func (p *inboxLogProtocol) Round(ctx *Context, inbox []Message) {
	p.rounds++
	line := fmt.Sprintf("r%d:", ctx.Round())
	for _, m := range inbox {
		line += fmt.Sprintf(" %d/%v", m.From, m.Payload)
	}
	p.log = append(p.log, line)
	if p.rounds < p.limit {
		p.send(ctx)
	}
}
func (p *inboxLogProtocol) Done() bool  { return p.rounds >= p.limit }
func (p *inboxLogProtocol) Output() any { return p.log }

// TestPullDeliveryMatchesPush pins the in-step pull delivery to the
// routing walk's push delivery: the fault-free run pulls every round,
// and a delay-only fault plan, which changes neither the content nor
// the order of any inbox, pushes every round. The inbox logs and
// RoundStats (MaxInbox included) of the two runs must match exactly,
// under every GOMAXPROCS of the sweep. The graph is relabelled, so the
// BFS order the engine steps in is far from index order.
func TestPullDeliveryMatchesPush(t *testing.T) {
	g, _ := gen.RelabelRandom(gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 5), 8)
	g.AddNode(10_000) // an isolated node, which never sends
	run := func(f *Faults) (map[graph.ID]any, []RoundStats) {
		rec := newRecordingObserver()
		outs, _, err := runIDs(graph.NewIndexed(g), RunOpts{Observer: rec, Faults: f}, 10, func(graph.ID) Protocol {
			return &inboxLogProtocol{limit: 7}
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs, scheduleFree(rec.rounds)
	}
	proctest.Sweep(func(procs int) {
		pullOut, pullStats := run(nil)
		pushOut, pushStats := run(mustParseFaults(t, "delay=1", 3))
		if !reflect.DeepEqual(pullOut, pushOut) {
			for v, want := range pushOut {
				if got := pullOut[v]; !reflect.DeepEqual(got, want) {
					t.Fatalf("procs %d node %d: pulled inboxes\n%v\npushed inboxes\n%v", procs, v, got, want)
				}
			}
		}
		if !reflect.DeepEqual(pullStats, pushStats) {
			t.Fatalf("procs %d: pull RoundStats %+v, push %+v", procs, pullStats, pushStats)
		}
	})
}

// TestPanicLowestIndexUnderBFSOrder: the engine steps each range in BFS
// order, so a higher-index panic can run first; the step must still
// report the lowest panicking index. On the path 0-5-1-4-2-3 the BFS
// order from node 0 reaches index 4 before index 2.
func TestPanicLowestIndexUnderBFSOrder(t *testing.T) {
	g := graph.FromEdges(nil, [][2]graph.ID{{0, 5}, {5, 1}, {1, 4}, {4, 2}, {2, 3}})
	ix := graph.NewIndexed(g)
	if got := ix.BFSOrder(); !reflect.DeepEqual(got, []int32{0, 5, 1, 4, 2, 3}) {
		t.Fatalf("BFS order %v", got)
	}
	proctest.Sweep(func(procs int) {
		_, _, err := runIDs(ix, RunOpts{}, 5, func(v graph.ID) Protocol {
			return &panicProtocol{id: v, arm: v == 2 || v == 4}
		})
		want := "dist: node program panicked: node 2 exploded"
		if err == nil || err.Error() != want {
			t.Fatalf("procs %d: err = %v, want %q", procs, err, want)
		}
	})
}
