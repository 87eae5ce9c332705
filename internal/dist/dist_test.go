package dist

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// echoProtocol floods a counter for a fixed number of rounds.
type echoProtocol struct {
	rounds int
	target int
	sum    int
}

func (p *echoProtocol) Init(ctx *Context) { ctx.Broadcast(1) }
func (p *echoProtocol) Round(ctx *Context, inbox []Message) {
	if p.rounds >= p.target {
		return
	}
	p.rounds++
	for _, m := range inbox {
		p.sum += m.Payload.(int)
	}
	if p.rounds < p.target {
		ctx.Broadcast(1)
	}
}
func (p *echoProtocol) Done() bool  { return p.rounds >= p.target }
func (p *echoProtocol) Output() any { return p.sum }

// runIDs runs newNode(v) on every node v of ix through Run and keys the
// outputs by node ID, the form most assertions read.
func runIDs(ix *graph.Indexed, opts RunOpts, maxRounds int, newNode func(v graph.ID) Protocol) (map[graph.ID]any, *Result, error) {
	outs, res, err := Run(ix, NodeFunc(func(i int) Protocol { return newNode(ix.IDOf(i)) }), opts, maxRounds)
	if err != nil {
		return nil, nil, err
	}
	byID := make(map[graph.ID]any, len(outs))
	for i, out := range outs {
		byID[ix.IDOf(i)] = out
	}
	return byID, res, nil
}

func TestEngineRoundsAndDelivery(t *testing.T) {
	g := gen.Cycle(6)
	proctest.Sweep(func(procs int) {
		outs, res, err := runIDs(graph.NewIndexed(g), RunOpts{}, 10, func(v graph.ID) Protocol {
			return &echoProtocol{target: 3}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 3 {
			t.Fatalf("procs %d: rounds = %d, want 3", procs, res.Rounds)
		}
		// Each node receives 2 messages per round for 3 rounds.
		for v, out := range outs {
			if out.(int) != 6 {
				t.Fatalf("procs %d: node %d sum = %d, want 6", procs, v, out)
			}
		}
	})
}

func TestEngineTimeout(t *testing.T) {
	g := gen.Path(3)
	_, _, err := runIDs(graph.NewIndexed(g), RunOpts{}, 5, func(v graph.ID) Protocol {
		return &echoProtocol{target: 100}
	})
	if err == nil {
		t.Fatal("expected timeout error")
	}
}

func TestEngineConcurrentMatchesSequential(t *testing.T) {
	g := gen.RandomChordal(40, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 7)
	var seq map[graph.ID]any
	proctest.Sweep(func(procs int) {
		outs, _, err := runIDs(graph.NewIndexed(g), RunOpts{}, 10, func(v graph.ID) Protocol {
			return &echoProtocol{target: 4}
		})
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			seq = outs
			return
		}
		for v := range seq {
			if seq[v] != outs[v] {
				t.Fatalf("node %d: one range %v != %d ranges %v", v, seq[v], procs, outs[v])
			}
		}
	})
}

// floodIDs floods g and keys the knowledge by node ID, the form most
// assertions read.
func floodIDs(g *graph.Graph, radius int, opts RunOpts) (map[graph.ID]*Knowledge, *Result, error) {
	ix := graph.NewIndexed(g)
	ks, res, err := Flood(ix, radius, opts)
	if err != nil {
		return nil, nil, err
	}
	return byID(ix, ks), res, nil
}

// floodByID is floodIDs failing the test on error.
func floodByID(t testing.TB, g *graph.Graph, radius int, opts RunOpts) (map[graph.ID]*Knowledge, *Result) {
	t.Helper()
	know, res, err := floodIDs(g, radius, opts)
	if err != nil {
		t.Fatal(err)
	}
	return know, res
}

// byID keys knowledge by snapshot index as knowledge by node ID.
func byID(ix *graph.Indexed, ks []*Knowledge) map[graph.ID]*Knowledge {
	out := make(map[graph.ID]*Knowledge, len(ks))
	for i, k := range ks {
		out[ix.IDOf(i)] = k
	}
	return out
}

func TestCollectBallsExactBalls(t *testing.T) {
	g := gen.RandomChordal(30, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.5}, 3)
	ix := graph.NewIndexed(g)
	for _, radius := range []int{0, 1, 2, 4} {
		ks, res, err := Flood(ix, radius, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != radius {
			t.Fatalf("radius %d: rounds = %d", radius, res.Rounds)
		}
		checkBalls(t, fmt.Sprintf("radius %d", radius), g, ix, ks, radius)
	}
}

func TestCollectBallsDisconnected(t *testing.T) {
	g := gen.Path(4)
	g.AddEdge(10, 11)
	ix := graph.NewIndexed(g)
	know := floodIndexed(t, ix, 5)
	if i, _ := ix.IndexOf(10); know[0].KnownIdx(int32(i)) {
		t.Fatal("knowledge crossed components")
	}
	if know[10].Size() != 2 {
		t.Fatalf("node 10 knows %d nodes, want 2", know[10].Size())
	}
}

// ballSizeHintLoop is the per-hop loop ballSizeHint replaced, kept as
// its oracle.
func ballSizeHintLoop(deg, avgDeg, radius, n int) int {
	if deg == 0 || radius == 0 {
		return 1
	}
	grow := avgDeg - 1
	if grow < 1 {
		grow = 1
	}
	s, f := 1, deg
	for r := 0; r < radius; r++ {
		s += f
		if s >= n || s >= maxBallHint {
			break
		}
		if f > n/grow {
			f = n
		} else {
			f *= grow
		}
	}
	if s > n {
		s = n
	}
	if s > maxBallHint {
		s = maxBallHint
	}
	return s
}

// TestBallSizeHintMatchesLoop pins the O(1) presize estimate to the
// per-hop loop it replaced over the whole grid the flood can ask about
// in practice, so presizes — and allocation totals — are unchanged.
func TestBallSizeHintMatchesLoop(t *testing.T) {
	ns := []int{0, 1, 2, 3, 5, 9, 17, 100, 1000, maxBallHint - 1, maxBallHint, maxBallHint + 1, 5000, 1 << 16, 1 << 20}
	for deg := 0; deg <= 8; deg++ {
		for avg := 0; avg <= 8; avg++ {
			for radius := 0; radius <= 500; radius++ {
				for _, n := range ns {
					if got, want := ballSizeHint(deg, avg, radius, n), ballSizeHintLoop(deg, avg, radius, n); got != want {
						t.Fatalf("ballSizeHint(deg %d, avgDeg %d, radius %d, n %d) = %d, loop gives %d", deg, avg, radius, n, got, want)
					}
				}
			}
		}
	}
}
