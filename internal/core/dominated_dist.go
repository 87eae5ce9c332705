package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// neighborList is the payload of the dominated-check protocol.
type neighborList []graph.ID

// PayloadSize implements dist.Sizer.
func (n neighborList) PayloadSize() int { return len(n) }

// dominatedProtocol is the genuinely distributed version of Algorithm 5's
// first step: in one exchange every node learns its neighbors' closed
// neighborhoods and decides locally whether some neighbor u satisfies
// Γ[u] ⊊ Γ[v] (then v is dominated and drops out).
type dominatedProtocol struct {
	closed    graph.Set
	dominated bool
	done      bool
}

func (p *dominatedProtocol) Init(ctx *dist.Context) {
	p.closed = graph.NewSet(append(append(graph.Set{}, ctx.Neighbors()...), ctx.ID())...)
	ctx.Broadcast(neighborList(p.closed))
}

func (p *dominatedProtocol) Round(ctx *dist.Context, inbox []dist.Message) {
	if p.done {
		return
	}
	for _, m := range inbox {
		other := graph.Set(m.Payload.(neighborList))
		if other.ProperSubsetOf(p.closed) {
			p.dominated = true
		}
	}
	p.done = true
}

func (p *dominatedProtocol) Done() bool  { return p.done }
func (p *dominatedProtocol) Output() any { return p.dominated }

// DistributedDominated runs the dominated-vertex check as a LOCAL
// protocol and returns the dominated set plus the rounds used (1 exchange
// after the initial broadcast).
func DistributedDominated(g *graph.Graph) (graph.Set, int, error) {
	ix := graph.NewIndexed(g)
	outs, res, err := dist.Run(ix, dist.NodeFunc(func(int) dist.Protocol { return &dominatedProtocol{} }), dist.RunOpts{}, 3)
	if err != nil {
		return nil, 0, fmt.Errorf("dominated check: %w", err)
	}
	var out graph.Set
	for i, o := range outs {
		if o.(bool) {
			out = append(out, ix.IDOf(i))
		}
	}
	return graph.NewSet(out...), res.Rounds, nil
}
