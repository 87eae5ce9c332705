// Package colorreduce implements the deterministic symmetry-breaking
// substrate the paper's interval routines rely on: Linial's color
// reduction [25] (O(log* n) rounds to O(Δ² log Δ) colors on graphs of
// maximum degree Δ, here used on paths and chain structures), greedy
// color-class reduction to Δ+1 colors, maximal independent sets from
// colorings, and weighted block-anchor selection on chains — our stand-in
// for the Schneider–Wattenhofer MISUnitInterval routine with the same
// O(k + log* n)-flavoured round behaviour.
//
// All algorithms are genuine message-passing protocols executed on the
// dist engine; round counts come from the engine.
package colorreduce

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// linialParams returns (q, d) for one Linial reduction step: the current
// palette [m] is identified with polynomials of degree ≤ d over F_q
// (coefficient vectors, base-q digits of the color), with q the smallest
// prime such that q^(d+1) >= m and q > (d+1)*delta. A node picks an
// evaluation point x where its polynomial differs from all neighbors'
// polynomials — possible since two distinct degree-≤d polynomials agree on
// at most d points, so delta neighbors rule out ≤ delta*d < q points.
// The new color (x, p(x)) lives in a palette of size q².
func linialParams(m, delta int) (q, d int) {
	for q = 2; ; q++ {
		if !isPrime(q) {
			continue
		}
		// Smallest d with q^(d+1) >= m.
		d = 0
		pow := q
		for pow < m {
			pow *= q
			d++
		}
		if q > (d+1)*delta {
			return q, d
		}
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return false
		}
	}
	return true
}

// digitsBaseQ writes c as d+1 base-q digits (the polynomial coefficients).
func digitsBaseQ(c, q, d int) []int {
	out := make([]int, d+1)
	for i := 0; i <= d; i++ {
		out[i] = c % q
		c /= q
	}
	return out
}

// evalPoly evaluates the coefficient vector at x over F_q.
func evalPoly(coeffs []int, x, q int) int {
	val := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		val = (val*x + coeffs[i]) % q
	}
	return val
}

// linialStep maps a proper m-coloring to a proper q²-coloring given each
// node's color and its neighbors' colors.
func linialStep(own int, neighbors []int, m, delta int) int {
	q, d := linialParams(m, delta)
	p := digitsBaseQ(own, q, d)
	var others [][]int
	for _, c := range neighbors {
		if c != own {
			others = append(others, digitsBaseQ(c, q, d))
		}
	}
	for x := 0; x < q; x++ {
		ok := true
		for _, o := range others {
			if evalPoly(o, x, q) == evalPoly(p, x, q) {
				ok = false
				break
			}
		}
		if ok {
			return x*q + evalPoly(p, x, q)
		}
	}
	// Unreachable for a proper input coloring by the counting argument.
	panic("colorreduce: no evaluation point found; input coloring improper")
}

// reduceProtocol runs Linial steps until the palette stabilizes, then
// eliminates color classes greedily down to delta+1 colors.
type reduceProtocol struct {
	delta   int
	palette int // current palette size m (same at every node)
	color   int
	phase   int // 0 = Linial, 1 = class elimination, 2 = done
	elimCur int // color class currently being eliminated
	done    bool
}

func newReduceProtocol(id graph.ID, idBound, delta int) *reduceProtocol {
	return &reduceProtocol{delta: delta, palette: idBound, color: int(id)}
}

func (p *reduceProtocol) Init(ctx *dist.Context) {
	ctx.Broadcast(p.color)
}

func (p *reduceProtocol) Round(ctx *dist.Context, inbox []dist.Message) {
	if p.done {
		ctx.Broadcast(p.color)
		return
	}
	var nbColors []int
	for _, m := range inbox {
		nbColors = append(nbColors, m.Payload.(int))
	}
	switch p.phase {
	case 0:
		q, _ := linialParams(p.palette, p.delta)
		next := q * q
		if next >= p.palette {
			// Palette stopped shrinking: switch to class elimination.
			p.phase = 1
			p.elimCur = p.palette - 1
			p.eliminate(nbColors)
		} else {
			p.color = linialStep(p.color, nbColors, p.palette, p.delta)
			p.palette = next
		}
	case 1:
		p.eliminate(nbColors)
	}
	ctx.Broadcast(p.color)
}

// eliminate performs one class-elimination round: every node of the
// highest remaining color picks the smallest color in [0, delta] unused by
// its neighbors. Nodes of one class are pairwise non-adjacent, so
// simultaneous recoloring is safe.
func (p *reduceProtocol) eliminate(nbColors []int) {
	if p.color == p.elimCur && p.color > p.delta {
		used := make(map[int]bool, len(nbColors))
		for _, c := range nbColors {
			used[c] = true
		}
		for c := 0; ; c++ {
			if !used[c] {
				p.color = c
				break
			}
		}
	}
	p.elimCur--
	if p.elimCur <= p.delta {
		p.done = true
	}
}

func (p *reduceProtocol) Done() bool  { return p.done }
func (p *reduceProtocol) Output() any { return p.color }

// ReduceToDeltaPlusOne runs the full reduction on g (maximum degree delta,
// IDs in [0, idBound)) and returns a proper coloring with colors in
// [0, delta] plus the number of communication rounds used.
func ReduceToDeltaPlusOne(g *graph.Graph, delta, idBound int) (map[graph.ID]int, int, error) {
	if g.NumNodes() == 0 {
		return map[graph.ID]int{}, 0, nil
	}
	if d := g.MaxDegree(); d > delta {
		return nil, 0, fmt.Errorf("graph has degree %d > declared delta %d", d, delta)
	}
	for _, v := range g.Nodes() {
		if int(v) < 0 || int(v) >= idBound {
			return nil, 0, fmt.Errorf("node ID %d outside [0, %d)", v, idBound)
		}
	}
	ix := graph.NewIndexed(g)
	outs, res, err := dist.Run(ix, dist.NodeFunc(func(i int) dist.Protocol {
		return newReduceProtocol(ix.IDOf(i), idBound, delta)
	}), dist.RunOpts{}, 10000+idBound)
	if err != nil {
		return nil, 0, fmt.Errorf("color reduction: %w", err)
	}
	colors := make(map[graph.ID]int, len(outs))
	for i, out := range outs {
		colors[ix.IDOf(i)] = out.(int)
	}
	return colors, res.Rounds, nil
}

// ThreeColorChain 3-colors a disjoint union of paths (max degree 2) with
// colors {0,1,2} in O(log* idBound) + O(1) rounds.
func ThreeColorChain(chain *graph.Graph, idBound int) (map[graph.ID]int, int, error) {
	return ReduceToDeltaPlusOne(chain, 2, idBound)
}
