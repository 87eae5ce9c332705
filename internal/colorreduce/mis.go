package colorreduce

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// misProtocol computes a maximal independent set from a proper coloring in
// one round per color class: in round t, undecided nodes of color t join
// unless a neighbor already joined.
type misProtocol struct {
	color   int
	palette int
	round   int
	inIS    bool
	blocked bool
	done    bool
}

func (p *misProtocol) Init(ctx *dist.Context) {}

func (p *misProtocol) Round(ctx *dist.Context, inbox []dist.Message) {
	if p.done {
		return
	}
	for _, m := range inbox {
		if m.Payload.(bool) {
			p.blocked = true
		}
	}
	if !p.blocked && !p.inIS && p.color == p.round {
		p.inIS = true
		ctx.Broadcast(true)
	}
	p.round++
	if p.round >= p.palette {
		p.done = true
	}
}

func (p *misProtocol) Done() bool  { return p.done }
func (p *misProtocol) Output() any { return p.inIS }

// MISFromColoring computes a maximal independent set of g given a proper
// coloring with colors in [0, palette), in palette communication rounds.
func MISFromColoring(g *graph.Graph, colors map[graph.ID]int, palette int) (graph.Set, int, error) {
	for _, v := range g.Nodes() {
		c, ok := colors[v]
		if !ok || c < 0 || c >= palette {
			return nil, 0, fmt.Errorf("node %d has invalid color", v)
		}
	}
	ix := graph.NewIndexed(g)
	outs, res, err := dist.Run(ix, dist.NodeFunc(func(i int) dist.Protocol {
		return &misProtocol{color: colors[ix.IDOf(i)], palette: palette}
	}), dist.RunOpts{}, palette+1)
	if err != nil {
		return nil, 0, fmt.Errorf("mis from coloring: %w", err)
	}
	var is graph.Set
	for i, out := range outs {
		if out.(bool) {
			is = append(is, ix.IDOf(i))
		}
	}
	return graph.NewSet(is...), res.Rounds, nil
}

// MISChain computes a maximal independent set of a disjoint union of
// paths in O(log* idBound) rounds: Linial reduction to 3 colors, then
// 3 rounds of class-greedy selection.
func MISChain(chain *graph.Graph, idBound int) (graph.Set, int, error) {
	colors, r1, err := ThreeColorChain(chain, idBound)
	if err != nil {
		return nil, 0, err
	}
	is, r2, err := MISFromColoring(chain, colors, 3)
	if err != nil {
		return nil, 0, err
	}
	return is, r1 + r2, nil
}
