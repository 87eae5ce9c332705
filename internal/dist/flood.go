package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Knowledge is what a node has learned after r rounds of flooding: the
// set of nodes it heard of, by snapshot index, with the center among
// them. Fault-free that set is exactly the radius-r ball {u : d(v,u) ≤
// r}. The knowledge is the flood's own dedup structure, handed over when
// the run ends; it keeps no records, distances or discovery order,
// because no reader needs them: the decide kernel tests membership and
// recomputes every distance inside its own view.
// Knowledge is not safe for concurrent use.
type Knowledge struct {
	Center graph.ID
	Radius int
	size   int
	// Exactly one of seen and known is the membership set by snapshot
	// index: seen is the plain flood's dense dedup bitmap at n ≤
	// seenBitmapMaxN; known is the sparse set it dedups with above that
	// bound, and the one retransmitted knowledge carries at every n.
	seen  []uint64
	known IdxSet
}

// Size returns the number of known nodes (the center counts).
func (k *Knowledge) Size() int { return k.size }

// KnownIdx reports whether the node at snapshot index i is within the
// collected ball: a single bit test in the dense-bitmap regime, a single
// probe in the sparse-set one. Both inline, so a caller's loop pays no
// call per probe.
func (k *Knowledge) KnownIdx(i int32) bool {
	if k.seen == nil {
		return k.known.has(i)
	}
	return k.seen[i>>6]&(1<<(i&63)) != 0
}

// AppendMembers appends the snapshot indices of the known nodes to dst
// in ascending order and returns the extended slice.
func (k *Knowledge) AppendMembers(dst []int32) []int32 {
	if k.seen == nil {
		start := len(dst)
		dst = k.known.appendTo(dst)
		slices.Sort(dst[start:])
		return dst
	}
	for w, word := range k.seen {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// infoBatch is the flood message payload: the snapshot indices of the
// records the sender learned last round. Its size is its record count.
// Batches travel as *infoBatch so queueing a payload never boxes a slice
// header into an allocation.
type infoBatch []int32

// PayloadSize implements Sizer.
func (b *infoBatch) PayloadSize() int { return len(*b) }

// seenBitmapMaxN bounds the graphs for which flood protocols dedup with a
// dense per-node bitmap (n²/8 bytes network-wide; 32 MB at the bound).
// Larger networks dedup with a sparse open-addressing set of snapshot
// indices sized by the ball, which costs nothing extra when balls are
// small relative to n — the only regime in which such networks are
// floodable at all.
const seenBitmapMaxN = 1 << 14

// floodProtocol implements incremental full-information flooding: each
// round a node forwards only the records it learned in the previous
// round, so total communication is proportional to the knowledge
// gathered rather than quadratic in it. A node logs nothing it learns:
// its dedup structure is its knowledge. Round r's fresh records go to
// the reused buffer buf[r&1], which the outgoing *infoBatch points at;
// neighbors read it in round r+1, and round r+2 rewrites it.
type floodProtocol struct {
	radius int
	round  int
	know   *Knowledge
	buf    [2]infoBatch
	seen   []uint64 // dense dedup bitmap by snapshot index; nil for big n
}

// newFloodProtocol builds node v's flood, presizing its sparse dedup set
// (used only above seenBitmapMaxN) for sizeHint nodes.
func newFloodProtocol(v graph.ID, idx int, ix *graph.Indexed, radius, sizeHint int) *floodProtocol {
	n := ix.NumNodes()
	k := &Knowledge{Center: v, Radius: radius, size: 1}
	p := &floodProtocol{radius: radius, know: k}
	if n <= seenBitmapMaxN {
		p.seen = make([]uint64, (n+63)/64)
		p.seen[idx>>6] |= 1 << (uint(idx) & 63)
		// The knowledge shares the bitmap: after the run it serves as
		// the index-space membership test (KnownIdx).
		k.seen = p.seen
	} else {
		// Big-n regime: dedup with the knowledge's own sparse index set,
		// which doubles as its membership test after the run.
		k.known.Reserve(sizeHint)
		k.known.Add(int32(idx))
	}
	p.buf[0] = infoBatch{int32(idx)}
	return p
}

func (p *floodProtocol) Init(ctx *Context) {
	if p.radius > 0 {
		ctx.Broadcast(&p.buf[0])
	}
}

// Round accepts the unseen records of every batch and forwards them.
//
//chordalvet:hotpath budget=4 per-round flood step: the fresh-record append, the broadcast, the sparse set's growth
func (p *floodProtocol) Round(ctx *Context, inbox []Message) {
	if p.round >= p.radius {
		return
	}
	p.round++
	k := p.know
	cur := p.round & 1
	fresh := p.buf[cur][:0]
	for _, m := range inbox {
		for _, idx := range *m.Payload.(*infoBatch) {
			if p.seen != nil {
				w, b := idx>>6, uint64(1)<<(uint(idx)&63)
				if p.seen[w]&b != 0 {
					continue
				}
				p.seen[w] |= b
			} else if !k.known.Add(idx) {
				continue
			}
			fresh = append(fresh, idx)
		}
	}
	k.size += len(fresh)
	p.buf[cur] = fresh
	if len(fresh) > 0 && p.round < p.radius {
		ctx.Broadcast(&p.buf[cur])
	}
}

func (p *floodProtocol) Done() bool  { return p.round >= p.radius }
func (p *floodProtocol) Output() any { return p.know }

// maxBallHint caps the per-node presize so a mis-estimate can never
// front-load more memory than the flood would actually gather; the set
// simply grows past it when balls really are larger.
const maxBallHint = 1 << 12

// ballSizeHint estimates |Γ^radius[v]| for presizing the sparse dedup set:
// the node's own degree for the first hop, average-degree growth after
// that, capped at n and at maxBallHint. Using the average rather than
// the maximum degree matters at scale — one hub must not inflate every
// node's presize. Only a capacity hint; correctness never depends on it.
//
// With grow = avgDeg−1 (at least 1), the estimate after r hops is
// 1 + deg·(1 + grow + … + grow^(r−1)). Arithmetic growth (grow = 1) is
// evaluated in closed form; geometric growth at least doubles the sum
// every hop, so it passes maxBallHint within bits.Len(maxBallHint) hops
// whatever the radius. Either way the cost is O(1), not O(radius).
func ballSizeHint(deg, avgDeg, radius, n int) int {
	if deg == 0 || radius == 0 {
		return 1
	}
	limit := min(n, maxBallHint)
	grow := max(avgDeg-1, 1)
	if grow == 1 {
		// min(1 + radius·deg, limit), compared by division so the
		// product cannot overflow.
		if radius > (limit-1)/deg {
			return limit
		}
		return 1 + radius*deg
	}
	s, f := 1, deg
	for range min(radius, bits.Len(maxBallHint)) {
		s += f
		if s >= limit {
			return limit
		}
		if f > n/grow {
			f = n // overflow guard: the next hop passes n anyway
		} else {
			f *= grow
		}
	}
	return s
}

// floodProgram is the incremental flood as a Program: one run's radius
// and the average degree its size hints grow by.
type floodProgram struct {
	ix     *graph.Indexed
	radius int
	avgDeg int
}

func newFloodProgram(ix *graph.Indexed, radius int) *floodProgram {
	avgDeg := 0
	if n := ix.NumNodes(); n > 0 {
		avgDeg = 2 * ix.NumEdges() / n
	}
	return &floodProgram{ix: ix, radius: radius, avgDeg: avgDeg}
}

// NewNode implements Program.
func (f *floodProgram) NewNode(i int) Protocol {
	hint := ballSizeHint(f.ix.Degree(i), f.avgDeg, f.radius, f.ix.NumNodes())
	return newFloodProtocol(f.ix.IDOf(i), i, f.ix, f.radius, hint)
}

// Flood runs full-information flooding for radius rounds on ix and
// returns each node's knowledge by snapshot index, with the run's
// counters (Rounds is always radius). The flood has no retransmission:
// duplicates are absorbed by its dedup and delays by the
// round-synchronous model, but drops silently shrink the collected
// balls and crashes surface as errors — FloodRetrans survives drops.
func Flood(ix *graph.Indexed, radius int, opts RunOpts) ([]*Knowledge, *Result, error) {
	if radius < 0 {
		return nil, nil, fmt.Errorf("flooding: radius %d is negative", radius)
	}
	outs, res, err := Run(ix, newFloodProgram(ix, radius), opts, radius+1)
	if err != nil {
		return nil, nil, fmt.Errorf("flooding: %w", err)
	}
	return knowledgeOf(outs), res, nil
}

// knowledgeOf converts a flood run's outputs to knowledge.
func knowledgeOf(outs []any) []*Knowledge {
	ks := make([]*Knowledge, len(outs))
	for i, o := range outs {
		ks[i] = o.(*Knowledge)
	}
	return ks
}
