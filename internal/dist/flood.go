package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// NodeInfo is one known node as the by-ID accessor InfoOf reports it:
// identity, full adjacency list and annotation. No flood stores or
// sends one — a record is the node's snapshot index (see Knowledge) —
// so InfoOf builds it on demand from the snapshot and the run's note
// table.
type NodeInfo struct {
	Node graph.ID
	Adj  []graph.ID
	Note any
}

// Knowledge is what a node has learned after r rounds of flooding: the
// info of every node at distance at most r, with distances. Records are
// snapshot indices stored in discovery order (distances nondecreasing,
// center first) — in memory exactly as on the partitioned runtime's
// wire — so a ball holds no pointers and the GC never scans one.
// Identity and adjacency resolve through the snapshot, annotations
// through the run's note table; by-ID lookups go through a position map
// that is built lazily, so flood-only workloads never pay for it.
// Knowledge is not safe for concurrent use.
type Knowledge struct {
	Center graph.ID
	Radius int
	recs   []int32 // snapshot indices, discovery order
	dist   []int32 // aligned with recs
	pos    map[graph.ID]int32
	// seen is the flood protocol's dense dedup bitmap by snapshot index,
	// handed over to the knowledge it built (nil in the sparse-set regime
	// and for retransmitted knowledge). CoversComponent and KnownIdx
	// reuse it so small-n pruning never allocates a per-center position
	// map.
	seen []uint64
	// known is the sparse dedup set by snapshot index — the big-n
	// counterpart of seen, populated by the flood protocol above
	// seenBitmapMaxN and by the retransmitting protocol's rebuild.
	// KnownIdx and CoversComponent resolve through it, so index-space
	// consumers never trigger the lazy position map regardless of n.
	known IdxSet
	// snap is the engine snapshot the flood ran on: records resolve
	// their identity and adjacency through it. Non-nil for all
	// protocol-built knowledge.
	snap *graph.Indexed
	// notes is the run's annotation table by snapshot index, shared by
	// every knowledge of the run and never written after the flood
	// starts (nil = no annotations).
	notes []any
	// maxDist is the largest distance at which the flood still learned a
	// new node.
	maxDist int
}

// ensurePos returns the ID→record-index map, building it on first use.
// All protocols dedup in index space (bitmap or IdxSet), so only the
// ID-keyed accessors ever pay for this map.
func (k *Knowledge) ensurePos() map[graph.ID]int32 {
	if k.pos == nil {
		k.pos = make(map[graph.ID]int32, len(k.recs))
		for i, idx := range k.recs {
			k.pos[k.snap.IDOf(int(idx))] = int32(i)
		}
	}
	return k.pos
}

// Size returns the number of known nodes (the center counts).
func (k *Knowledge) Size() int { return len(k.recs) }

// RecordCount returns the number of records, implementing the decide
// kernel's view.Source.
func (k *Knowledge) RecordCount() int { return len(k.recs) }

// RecordAt returns record i's snapshot index, its hop distance from the
// center, and its adjacency row in snapshot-index space (a shared view —
// read-only), implementing view.Source. Records are in nondecreasing-
// distance discovery order with the center first. Only meaningful when
// IndexReady reports true.
func (k *Knowledge) RecordAt(i int) (idx int32, dist int32, adj []int32) {
	idx = k.recs[i]
	return idx, k.dist[i], k.snap.NeighborIndices(int(idx))
}

// IndexReady reports whether the knowledge can resolve records in
// snapshot-index space, i.e. whether RecordAt and KnownIdx are usable.
// True for all knowledge built by the flooding protocols.
func (k *Knowledge) IndexReady() bool { return k.snap != nil }

// KnownIdx reports whether the node at snapshot index i is within the
// collected ball. In the dense-bitmap regime this is a single bit test
// with no map build; in the sparse-set regime a single probe; otherwise
// it falls back to a record scan. Only meaningful when IndexReady
// reports true.
func (k *Knowledge) KnownIdx(i int32) bool {
	if k.seen != nil {
		return k.seen[i>>6]&(1<<(uint(i)&63)) != 0
	}
	if k.known.Len() > 0 {
		return k.known.Has(i)
	}
	return slices.Contains(k.recs, i)
}

// Known reports whether v is within the collected ball.
func (k *Knowledge) Known(v graph.ID) bool {
	_, ok := k.ensurePos()[v]
	return ok
}

// DistOf returns the distance from the center to v, and whether v is
// known.
func (k *Knowledge) DistOf(v graph.ID) (int, bool) {
	i, ok := k.ensurePos()[v]
	if !ok {
		return 0, false
	}
	return int(k.dist[i]), true
}

// InfoOf returns the record of a known node, built from the snapshot
// and the run's note table.
func (k *Knowledge) InfoOf(v graph.ID) (NodeInfo, bool) {
	i, ok := k.ensurePos()[v]
	if !ok {
		return NodeInfo{}, false
	}
	idx := k.recs[i]
	return NodeInfo{Node: v, Adj: k.snap.NeighborIDs(int(idx)), Note: k.noteAt(idx)}, true
}

// CoversComponent reports whether the knowledge provably covers the
// center's entire connected component: the known set is closed under
// adjacency (every known node's full adjacency list is known), which
// for a set containing the center means it IS the component. The
// closure criterion handles the boundary cases a quiescence test
// ("maxDist < Radius") gets wrong — a radius-0 flood on an isolated
// node has maxDist == Radius == 0 yet covers its component, and a ball
// that fills its component on exactly the last hop does too — and,
// unlike quiescence, it stays sound when the flood ran under message
// loss: a drop-truncated ball also quiesces early, but any strict
// subset of a connected component has a member whose adjacency names
// an absent node, so the closure scan reports it uncovered instead of
// letting corrupted knowledge masquerade as complete. Records are
// scanned frontier-first (reverse discovery order): a clipped ball's
// unknown neighbors hang off the last hop, so the common negative
// answer stays near-O(1). False means only that the ball was clipped,
// never that coverage is uncertain.
//
// Whenever the flood's own dedup structure survives — the dense bitmap
// at n ≤ seenBitmapMaxN, the sparse index set above it — the scan runs
// in snapshot-index space against it, so the per-center position map is
// never built: the pruning phase calls this once per undecided center
// per iteration, and the index-space paths keep that allocation-free at
// every n.
func (k *Knowledge) CoversComponent() bool {
	if k.seen != nil && k.snap != nil {
		for i := len(k.recs) - 1; i >= 0; i-- {
			for _, u := range k.snap.NeighborIndices(int(k.recs[i])) {
				if k.seen[u>>6]&(1<<(uint(u)&63)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if k.known.Len() > 0 && k.snap != nil {
		for i := len(k.recs) - 1; i >= 0; i-- {
			for _, u := range k.snap.NeighborIndices(int(k.recs[i])) {
				if !k.known.Has(u) {
					return false
				}
			}
		}
		return true
	}
	pos := k.ensurePos()
	for i := len(k.recs) - 1; i >= 0; i-- {
		for _, u := range k.snap.NeighborIDs(int(k.recs[i])) {
			if _, ok := pos[u]; !ok {
				return false
			}
		}
	}
	return true
}

// BallGraph returns the subgraph induced by the known nodes at distance at
// most r from the center. Because each known node's full adjacency list
// resolves through the snapshot, the induced subgraph is exact for
// r <= Radius.
func (k *Knowledge) BallGraph(r int) *graph.Graph {
	return k.FilteredBallGraph(r, func(graph.ID) bool { return true })
}

// FilteredBallGraph returns the subgraph induced by the known nodes at
// distance at most r that satisfy keep — equivalent to
// BallGraph(r).InducedSubgraph of the kept nodes, built in one pass.
// Records are stored in nondecreasing distance order, so both passes stop
// at the first record beyond r.
//
//chordalvet:coldpath map-built ball graph, used only on the radius<2 decide fallback
func (k *Knowledge) FilteredBallGraph(r int, keep func(graph.ID) bool) *graph.Graph {
	g := graph.New()
	pos := k.ensurePos()
	for i, idx := range k.recs {
		if int(k.dist[i]) > r {
			break
		}
		if v := k.snap.IDOf(int(idx)); keep(v) {
			g.AddNode(v)
		}
	}
	for i, idx := range k.recs {
		if int(k.dist[i]) > r {
			break
		}
		v := k.snap.IDOf(int(idx))
		if !keep(v) {
			continue
		}
		for _, u := range k.snap.NeighborIDs(int(idx)) {
			if j, ok := pos[u]; ok && int(k.dist[j]) <= r && keep(u) {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// Note returns the annotation of a known node (nil if unknown): its
// entry in the note table as it stood when the flood ran.
func (k *Knowledge) Note(v graph.ID) any {
	if info, ok := k.InfoOf(v); ok {
		return info.Note
	}
	return nil
}

// noteAt returns the annotation of the node at snapshot index idx.
func (k *Knowledge) noteAt(idx int32) any {
	if k.notes == nil {
		return nil
	}
	return k.notes[idx]
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
// gathered rather than quadratic in it. Fresh records are the tail of the
// knowledge's record slice appended this round; the outgoing batch is a
// capacity-capped view of that tail, so no separate fresh buffer exists.
// The two batch headers alternate because a header written in round r is
// read by neighbors in round r+1 and is dead by round r+2.
type floodProtocol struct {
	radius int
	round  int
	know   *Knowledge
	batch  [2]infoBatch
	seen   []uint64 // dense dedup bitmap by snapshot index; nil for big n
}

// newFloodProtocol builds node v's flood; notes is the run's note table
// by snapshot index (nil = no annotations), shared with its knowledge.
func newFloodProtocol(v graph.ID, idx int, ix *graph.Indexed, notes []any, radius, sizeHint int) *floodProtocol {
	n := ix.NumNodes()
	k := &Knowledge{
		Center: v,
		Radius: radius,
		recs:   make([]int32, 0, sizeHint),
		dist:   make([]int32, 0, sizeHint),
		snap:   ix,
		notes:  notes,
	}
	k.recs = append(k.recs, int32(idx))
	k.dist = append(k.dist, 0)
	p := &floodProtocol{radius: radius, know: k}
	if n <= seenBitmapMaxN {
		p.seen = make([]uint64, (n+63)/64)
		p.seen[idx>>6] |= 1 << (uint(idx) & 63)
		// The knowledge shares the bitmap: after the run it serves as
		// the index-space membership test (CoversComponent, KnownIdx).
		k.seen = p.seen
	} else {
		// Big-n regime: dedup with the knowledge's own sparse index set,
		// which doubles as its membership test after the run. The lazy
		// position map is built only if an ID-keyed accessor asks.
		k.known.Reserve(sizeHint)
		k.known.Add(int32(idx))
	}
	p.batch[0] = infoBatch(k.recs[0:1:1])
	return p
}

func (p *floodProtocol) Init(ctx *Context) {
	if p.radius > 0 {
		ctx.Broadcast(&p.batch[0])
	}
}

// Round accepts the unseen records of every batch and forwards them.
//
//chordalvet:hotpath budget=5 per-round flood step: record and distance appends, the broadcast, the sparse set's growth
func (p *floodProtocol) Round(ctx *Context, inbox []Message) {
	if p.round >= p.radius {
		return
	}
	p.round++
	k := p.know
	start := len(k.recs)
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
			k.recs = append(k.recs, idx)
			k.dist = append(k.dist, int32(p.round))
		}
	}
	if len(k.recs) > start {
		k.maxDist = p.round
		if p.round < p.radius {
			cur := p.round % 2
			p.batch[cur] = infoBatch(k.recs[start:len(k.recs):len(k.recs)])
			ctx.Broadcast(&p.batch[cur])
		}
	}
}

func (p *floodProtocol) Done() bool  { return p.round >= p.radius }
func (p *floodProtocol) Output() any { return p.know }

// maxBallHint caps the per-node presize so a mis-estimate can never
// front-load more memory than the flood would actually gather; slices
// and maps simply grow past it when balls really are larger.
const maxBallHint = 1 << 12

// ballSizeHint estimates |Γ^radius[v]| for presizing knowledge storage:
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

// CollectBalls runs full-information flooding for radius rounds on g, with
// optional per-node annotations, and returns each node's Knowledge. The
// second return value is the number of communication rounds used (always
// radius).
func CollectBalls(g *graph.Graph, radius int, notes map[graph.ID]any) (map[graph.ID]*Knowledge, int, error) {
	out, res, err := CollectBallsStats(g, radius, notes)
	if err != nil {
		return nil, 0, err
	}
	return out, res.Rounds, nil
}

// CollectBallsStats is CollectBalls with the full engine result (rounds,
// message count, volume in records) for bandwidth measurements.
func CollectBallsStats(g *graph.Graph, radius int, notes map[graph.ID]any) (map[graph.ID]*Knowledge, *Result, error) {
	return CollectBallsIndexed(graph.NewIndexed(g), radius, notes)
}

// CollectBallsIndexed is CollectBallsStats on an existing snapshot,
// letting iterated callers (the pruning phase) pay the snapshot cost
// once.
func CollectBallsIndexed(ix *graph.Indexed, radius int, notes map[graph.ID]any) (map[graph.ID]*Knowledge, *Result, error) {
	return CollectBallsIndexedObserved(ix, radius, notes, nil)
}

// CollectBallsIndexedObserved is CollectBallsIndexed with a RoundObserver
// attached to the flooding engine (nil behaves exactly like
// CollectBallsIndexed).
func CollectBallsIndexedObserved(ix *graph.Indexed, radius int, notes map[graph.ID]any, o RoundObserver) (map[graph.ID]*Knowledge, *Result, error) {
	return CollectBallsIndexedFaulty(ix, radius, notes, o, nil)
}

// CollectBallsIndexedFaulty is CollectBallsIndexedObserved with a fault
// schedule attached to the flooding engine. The protocol itself has no
// retransmission: duplicates are absorbed by its dedup and delays by the
// round-synchronous model, but drops silently shrink the collected balls
// and crashes surface as engine errors — callers that must survive drops
// use CollectBallsRetrans instead.
func CollectBallsIndexedFaulty(ix *graph.Indexed, radius int, notes map[graph.ID]any, o RoundObserver, f *Faults) (map[graph.ID]*Knowledge, *Result, error) {
	ks, res, err := collectBalls(ix, radius, noteTable(ix, notes), o, f, false)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[graph.ID]*Knowledge, len(ks))
	for i, v := range ix.IDs() {
		out[v] = ks[i]
	}
	return out, res, nil
}

// noteTable converts an ID-keyed annotation map into the index-keyed
// table the protocols share (nil when there are no annotations).
func noteTable(ix *graph.Indexed, notes map[graph.ID]any) []any {
	if len(notes) == 0 {
		return nil
	}
	noteOf := make([]any, ix.NumNodes())
	for v, note := range notes {
		if i, ok := ix.IndexOf(v); ok {
			noteOf[i] = note
		}
	}
	return noteOf
}

// CollectBallsByIndex is the index-space collection path: notes[i]
// annotates the node at snapshot index i (a nil slice means no
// annotations), and the returned knowledge slice is indexed the same
// way. The ID-keyed variants above are wrappers over it; iterated
// big-n callers — the pruning phase floods a million-node snapshot once
// per iteration — use it directly, so neither an n-entry note map nor
// an n-entry output map is ever built. The table is copied once per
// run, so a caller that keeps annotating after the flood (the pruning
// phase records each iteration's layers in it) never changes what the
// finished knowledge reports.
func CollectBallsByIndex(ix *graph.Indexed, radius int, notes []any, o RoundObserver, f *Faults) ([]*Knowledge, *Result, error) {
	return collectBalls(ix, radius, slices.Clone(notes), o, f, true)
}

// collectBalls runs the flood engine and hands each node's knowledge
// back by snapshot index. skipOutputs elides the engine's ID-keyed
// Result.Outputs map (the protocols themselves are the by-index output
// channel); the ID-keyed wrappers keep it populated for callers that
// read the Result directly.
func collectBalls(ix *graph.Indexed, radius int, notes []any, o RoundObserver, f *Faults, skipOutputs bool) ([]*Knowledge, *Result, error) {
	n := ix.NumNodes()
	avgDeg := 0
	if n > 0 {
		avgDeg = 2 * ix.NumEdges() / n
	}
	ps := make([]*floodProtocol, n)
	eng := NewEngineIndexed(ix, func(v graph.ID) Protocol {
		i, _ := ix.IndexOf(v)
		hint := ballSizeHint(ix.Degree(i), avgDeg, radius, n)
		ps[i] = newFloodProtocol(v, i, ix, notes, radius, hint)
		return ps[i]
	})
	eng.Observer = o
	eng.Faults = f
	eng.SkipOutputs = skipOutputs
	res, err := eng.Run(radius + 1)
	if err != nil {
		return nil, nil, fmt.Errorf("flooding: %w", err)
	}
	out := make([]*Knowledge, n)
	for i, p := range ps {
		out[i] = p.know
	}
	return out, res, nil
}
