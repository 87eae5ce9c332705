// Package baseline implements the comparator algorithms the paper's
// introduction cites: sequential greedy (Δ+1) coloring, Johansson's
// randomized distributed (Δ+1) coloring, Luby's randomized maximal
// independent set, and the sequential greedy maximal independent set.
// None of these carry approximation guarantees for MVC/MIS — they are the
// yardsticks our (1+ε) algorithms are measured against (experiment E14).
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/graph"
)

// GreedyColoring colors nodes in increasing ID order with the smallest
// free color, the classical sequential (Δ+1) heuristic. Colors are
// 1-based.
func GreedyColoring(g *graph.Graph) map[graph.ID]int {
	colors := make(map[graph.ID]int, g.NumNodes())
	for _, v := range g.Nodes() {
		used := make(map[int]bool)
		for _, u := range g.Neighbors(v) {
			if c, ok := colors[u]; ok {
				used[c] = true
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// GreedyMIS returns the maximal independent set obtained by scanning
// nodes in increasing ID order.
func GreedyMIS(g *graph.Graph) graph.Set {
	blocked := make(map[graph.ID]bool)
	var out graph.Set
	for _, v := range g.Nodes() {
		if blocked[v] {
			continue
		}
		out = append(out, v)
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return graph.NewSet(out...)
}

// lubyState is the per-node protocol of Luby's randomized MIS: in each
// phase every live node draws a random value, joins if it beats all live
// neighbors, and neighbors of joiners drop out. Expected O(log n) phases,
// two rounds per phase.
type lubyState struct {
	rng     *rand.Rand
	value   int64
	inIS    bool
	dead    bool
	phase   int // 0: exchange values, 1: announce joins
	nbAlive map[graph.ID]bool
	nbVals  map[graph.ID]int64
}

type lubyMsg struct {
	Kind  int // 0 value, 1 joined, 2 dropped
	Value int64
}

func (s *lubyState) Init(ctx *dist.Context) {
	s.nbAlive = make(map[graph.ID]bool, ctx.Degree())
	for _, u := range ctx.Neighbors() {
		s.nbAlive[u] = true
	}
	s.value = s.rng.Int63()
	ctx.Broadcast(lubyMsg{Kind: 0, Value: s.value})
}

func (s *lubyState) Round(ctx *dist.Context, inbox []dist.Message) {
	if s.dead || s.inIS {
		// Still relay nothing; stay silent.
		return
	}
	switch s.phase {
	case 0:
		s.nbVals = make(map[graph.ID]int64)
		for _, m := range inbox {
			msg := m.Payload.(lubyMsg)
			switch msg.Kind {
			case 0:
				s.nbVals[m.From] = msg.Value
			case 1:
				s.dead = true
			case 2:
				delete(s.nbAlive, m.From)
			}
		}
		if s.dead {
			ctx.Broadcast(lubyMsg{Kind: 2})
			return
		}
		win := true
		for u, alive := range s.nbAlive {
			if !alive {
				continue
			}
			val, ok := s.nbVals[u]
			if !ok {
				continue
			}
			if val > s.value || (val == s.value && u > ctx.ID()) {
				win = false
				break
			}
		}
		if win {
			s.inIS = true
			ctx.Broadcast(lubyMsg{Kind: 1})
			return
		}
		s.phase = 1
	case 1:
		for _, m := range inbox {
			msg := m.Payload.(lubyMsg)
			switch msg.Kind {
			case 1:
				s.dead = true
			case 2:
				delete(s.nbAlive, m.From)
			}
		}
		if s.dead {
			ctx.Broadcast(lubyMsg{Kind: 2})
			return
		}
		s.value = s.rng.Int63()
		ctx.Broadcast(lubyMsg{Kind: 0, Value: s.value})
		s.phase = 0
	}
}

func (s *lubyState) Done() bool  { return s.dead || s.inIS }
func (s *lubyState) Output() any { return s.inIS }

// LubyMIS runs Luby's randomized maximal independent set algorithm on the
// LOCAL engine and returns the set and the rounds used.
func LubyMIS(g *graph.Graph, seed int64) (graph.Set, int, error) {
	ix := graph.NewIndexed(g)
	outs, res, err := dist.Run(ix, dist.NodeFunc(func(i int) dist.Protocol {
		return &lubyState{rng: rand.New(rand.NewSource(seed ^ int64(ix.IDOf(i))*0x5851f42d4c957f2d))}
	}), dist.RunOpts{}, 200+20*g.NumNodes())
	if err != nil {
		return nil, 0, fmt.Errorf("luby: %w", err)
	}
	// Outputs come by snapshot index, so the set is built in ID order.
	var out graph.Set
	for i, o := range outs {
		if o.(bool) {
			out = append(out, ix.IDOf(i))
		}
	}
	return out, res.Rounds, nil
}
