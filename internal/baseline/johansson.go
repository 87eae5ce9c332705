package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/graph"
)

// johanssonState runs the classical randomized (Δ+1) trial coloring
// (Johansson-style): each phase, every uncolored node proposes a uniform
// color from its remaining palette; proposals that collide with a
// neighbor's proposal or a neighbor's final color are retried. Each node
// finishes in O(log n) phases with high probability.
type johanssonState struct {
	rng      *rand.Rand
	palette  int
	color    int // 0 = undecided
	proposal int
	banned   map[int]bool
	phase    int // 0: propose, 1: resolve
}

type johanssonMsg struct {
	Kind  int // 0 proposal, 1 final
	Color int
}

func (s *johanssonState) pick() int {
	for {
		c := 1 + s.rng.Intn(s.palette)
		if !s.banned[c] {
			return c
		}
	}
}

func (s *johanssonState) Init(ctx *dist.Context) {
	s.banned = make(map[int]bool)
	s.proposal = s.pick()
	ctx.Broadcast(johanssonMsg{Kind: 0, Color: s.proposal})
}

func (s *johanssonState) Round(ctx *dist.Context, inbox []dist.Message) {
	if s.color != 0 {
		return
	}
	switch s.phase {
	case 0:
		// Resolve: keep the proposal iff no neighbor proposed or owns it
		// (ties broken by ID: the higher ID keeps a contested proposal).
		keep := true
		for _, m := range inbox {
			msg := m.Payload.(johanssonMsg)
			switch msg.Kind {
			case 0:
				if msg.Color == s.proposal && m.From > ctx.ID() {
					keep = false
				}
			case 1:
				s.banned[msg.Color] = true
				if msg.Color == s.proposal {
					keep = false
				}
			}
		}
		if keep {
			s.color = s.proposal
			ctx.Broadcast(johanssonMsg{Kind: 1, Color: s.color})
			return
		}
		s.phase = 1
		s.Round(ctx, nil) // immediately re-propose this round
	case 1:
		for _, m := range inbox {
			msg := m.Payload.(johanssonMsg)
			if msg.Kind == 1 {
				s.banned[msg.Color] = true
			}
		}
		s.proposal = s.pick()
		ctx.Broadcast(johanssonMsg{Kind: 0, Color: s.proposal})
		s.phase = 0
	}
}

func (s *johanssonState) Done() bool  { return s.color != 0 }
func (s *johanssonState) Output() any { return s.color }

// JohanssonColoring runs the randomized distributed (Δ+1) trial coloring
// on the LOCAL engine; returns the coloring (1-based) and rounds used.
func JohanssonColoring(g *graph.Graph, seed int64) (map[graph.ID]int, int, error) {
	palette := g.MaxDegree() + 1
	ix := graph.NewIndexed(g)
	outs, res, err := dist.Run(ix, dist.NodeFunc(func(i int) dist.Protocol {
		return &johanssonState{
			rng:     rand.New(rand.NewSource(seed ^ int64(ix.IDOf(i))*0x5851f42d4c957f2d)),
			palette: palette,
		}
	}), dist.RunOpts{}, 500+40*g.NumNodes())
	if err != nil {
		return nil, 0, fmt.Errorf("johansson coloring: %w", err)
	}
	colors := make(map[graph.ID]int, len(outs))
	for i, o := range outs {
		colors[ix.IDOf(i)] = o.(int)
	}
	return colors, res.Rounds, nil
}
