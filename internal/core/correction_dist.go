package core

import (
	"fmt"
	"sort"

	"repro/internal/dist"
)

// The correction-phase choreography of Algorithms 2/4: after the coloring
// phase, nodes without parents are final immediately and announce it;
// every parent waits until (a) it is final itself and (b) every
// higher-layer neighbor of its layer-l children is final, then sends
// SetColor to those children, which finalizes them in turn. The engine
// measures the real asynchronous schedule length (the induction of
// Lemma 12). A SetColor names its child and carries no color: the
// colors are the correct-paths kernel's (colorLayers), which Lemma 12
// makes equal to the ones each parent would compute from its own
// (k+5)-ball.
//
// Protocol state is precomputed into shared index-space slabs resolved
// through the engine's CSR snapshot: messages carry int32 snapshot
// indices, each node's child groups and finality gates are contiguous
// slab ranges, and the per-node dedup sets are open-addressing IdxSets
// instead of map[graph.ID]bool. Children within a (parent, layer) group
// are sent SetColor in ascending index order, which fixes one
// deterministic send schedule (the map-backed predecessor iterated a Go
// map here, so its fault coordinates varied run to run).

// Both message kinds carry an absolute expiry step instead of a
// decrementing TTL: a message originated at step r with flooding budget
// ttl expires at step r+ttl+1, and a receiver processing it at step s
// relays iff Expire−s > 1 — the same predicate as decrementing a TTL
// from ttl and relaying while it exceeds 1, because the engine delivers
// every message exactly one hop per step (fault delays add synchronizer
// stall, not delivery latency). The payoff: a relay re-broadcasts the
// received boxed payload verbatim, so the flood's dominant path
// allocates nothing.

type finalMsg struct {
	Origin int32 // snapshot index of the finalized node
	Expire int32
}

type setColorMsg struct {
	Target int32 // snapshot index of the recolored child
	Expire int32
}

// corrGroup is one (parent, layer) child group: the children to recolor
// and the finality gate, both as ranges into the shared slabs.
type corrGroup struct {
	layer            int32
	kidOff, kidEnd   int32 // range into corrShared.kidIdx
	gateOff, gateEnd int32 // range into corrShared.gates
}

// corrShared is the read-only precomputed state shared by every
// correctionNode of one engine run.
type corrShared struct {
	groups []corrGroup
	kidIdx []int32 // children, ascending index within each group
	gates  []int32 // sorted, deduped gate node indices per group
}

// correctionNode is one node's state machine for the correction phase.
type correctionNode struct {
	sh        *corrShared
	idx       int32
	hasParent bool
	final     bool
	ttl       int // flooding TTL: k+5

	// This node's child groups are sh.groups[gOff:gEnd], descending
	// layer (CorrectChildren processes lv−1 … 1); pendingAt is the next
	// group to correct.
	gOff, gEnd int32
	pendingAt  int32

	// seenFinal doubles as the finality gate set: the choreography only
	// ever records a node as final when it first sees (or originates)
	// its announcement, so the two sets coincide.
	seenFinal dist.IdxSet
	seenSet   dist.IdxSet
}

func (c *correctionNode) Init(ctx *dist.Context) {
	if !c.hasParent {
		c.final = true
		c.announce(ctx)
	}
	c.tryCorrect(ctx)
}

// QuiescentRound declares that an empty-inbox Round call is a no-op:
// every enabled SetColor is drained by the tryCorrect at the end of the
// step that enabled it, so progress is driven entirely by received
// messages and the engine may skip idle nodes.
func (c *correctionNode) QuiescentRound() {}

func (c *correctionNode) announce(ctx *dist.Context) {
	if c.seenFinal.Add(c.idx) {
		ctx.Broadcast(finalMsg{Origin: c.idx, Expire: int32(ctx.Round()) + int32(c.ttl) + 1})
	}
}

func (c *correctionNode) Round(ctx *dist.Context, inbox []dist.Message) {
	rnd := int32(ctx.Round())
	for _, m := range inbox {
		switch msg := m.Payload.(type) {
		case finalMsg:
			if c.seenFinal.Add(msg.Origin) && msg.Expire-rnd > 1 {
				ctx.Broadcast(m.Payload)
			}
		case setColorMsg:
			if msg.Target == c.idx {
				if !c.final {
					c.final = true
					c.announce(ctx)
				}
				continue
			}
			if c.seenSet.Add(msg.Target) && msg.Expire-rnd > 1 {
				ctx.Broadcast(m.Payload)
			}
		}
	}
	c.tryCorrect(ctx)
}

// tryCorrect sends SetColor for the next child groups whose gates are
// satisfied. Groups are processed top-down, as in CorrectChildren.
func (c *correctionNode) tryCorrect(ctx *dist.Context) {
	if !c.final {
		return
	}
	for c.pendingAt < c.gEnd-c.gOff {
		grp := &c.sh.groups[c.gOff+c.pendingAt]
		for _, u := range c.sh.gates[grp.gateOff:grp.gateEnd] {
			if !c.seenFinal.Has(u) {
				return
			}
		}
		for j := grp.kidOff; j < grp.kidEnd; j++ {
			ctx.Broadcast(setColorMsg{Target: c.sh.kidIdx[j], Expire: int32(ctx.Round()) + int32(c.ttl) + 1})
		}
		c.pendingAt++
	}
}

func (c *correctionNode) Done() bool  { return c.final && c.pendingAt >= c.gEnd-c.gOff }
func (c *correctionNode) Output() any { return c.final }

// RunCorrectionPhase executes the correction choreography on the
// pruning outcome's snapshot, with its layers and parents. opts
// attaches an observer and a fault schedule and picks the runtime. The
// choreography dedups every message kind (seenFinal/seenSet), so
// duplication and delay leave the corrected coloring untouched; dropped
// messages stall it and surface as the did-not-terminate error. It
// returns the measured rounds of the asynchronous schedule.
func RunCorrectionPhase(out *PruneOutcome, k int, opts dist.RunOpts) (int, error) {
	if err := out.checkParents(); err != nil {
		return 0, fmt.Errorf("correction phase: %w", err)
	}
	ix := out.Snapshot
	prog := correctionPrecompute(out, k, opts.Observer)
	outs, res, err := dist.Run(ix, prog, opts, 20*(ix.NumNodes()+10)*(k+5))
	if err != nil {
		return 0, fmt.Errorf("correction phase: %w", err)
	}
	for i, final := range outs {
		if !final.(bool) {
			return 0, fmt.Errorf("node %d never finalized", ix.IDOf(i))
		}
	}
	return res.Rounds, nil
}

// correctionProgram is one correction run as a dist.Program: the shared
// state of the choreography, a pure function of its inputs. The
// coordinator computes it (correctionPrecompute), so the
// "correction-setup" kernel spans stay in its trace whichever runtime
// runs the nodes; shards rebuild it from its Params.
type correctionProgram struct {
	sh        *corrShared
	hasParent []bool
	nodeGOff  []int32
	ttl       int
	// slab holds the node slots NewNode has not handed out yet; made
	// counts the nodes it has built.
	slab []correctionNode
	made int
}

// corrSlabChunk caps how many node slots NewNode allocates at a time.
const corrSlabChunk = 1024

// NewNode implements dist.Program. Nodes come from slabs of up to
// corrSlabChunk slots, never more than the nodes not yet built, so a
// run's nodes cost a handful of allocations rather than one each.
func (p *correctionProgram) NewNode(i int) dist.Protocol {
	if len(p.slab) == 0 {
		p.slab = make([]correctionNode, min(corrSlabChunk, len(p.hasParent)-p.made))
	}
	p.made++
	node := &p.slab[0]
	p.slab = p.slab[1:]
	*node = correctionNode{
		sh:        p.sh,
		idx:       int32(i),
		hasParent: p.hasParent[i],
		ttl:       p.ttl,
		gOff:      p.nodeGOff[i],
		gEnd:      p.nodeGOff[i+1],
	}
	return node
}

// checkParents rejects an outcome the correction choreography could
// never finish, before any round runs: Layer and Parent must cover the
// snapshot, and every parent must be a node in a strictly higher layer
// than its child, the shape of Definition 1. A parent outside the
// snapshot would never send its child a SetColor, and a parent at or
// below its child's layer (cycles included) would wait on it forever.
func (out *PruneOutcome) checkParents() error {
	ix := out.Snapshot
	n := ix.NumNodes()
	if len(out.Layer) != n || len(out.Parent) != n {
		return fmt.Errorf("outcome has %d layers and %d parents for %d nodes", len(out.Layer), len(out.Parent), n)
	}
	for i, p := range out.Parent {
		switch {
		case p < -1 || int(p) >= n:
			return fmt.Errorf("node %d has parent index %d outside [0, %d)", ix.IDOf(i), p, n)
		case p >= 0 && out.Layer[p] <= out.Layer[i]:
			return fmt.Errorf("node %d in layer %d has parent %d in layer %d, not above it",
				ix.IDOf(i), out.Layer[i], ix.IDOf(int(p)), out.Layer[p])
		}
	}
	return nil
}

// correctionPrecompute lays the outcome's parents out as the shared
// index-space slabs the choreography runs on.
func correctionPrecompute(out *PruneOutcome, k int, o dist.RoundObserver) *correctionProgram {
	ix := out.Snapshot
	n := ix.NumNodes()
	layerOf := out.Layer

	// Flatten the parent relation into (parent, layer desc, child asc)
	// triples; contiguous runs become the per-parent child groups.
	type kidRec struct{ p, l, c int32 }
	hasParent := make([]bool, n)
	kidCount := 0
	for c, p := range out.Parent {
		if p >= 0 {
			hasParent[c] = true
			kidCount++
		}
	}
	kids := make([]kidRec, 0, kidCount)
	for c, p := range out.Parent {
		if p >= 0 {
			kids = append(kids, kidRec{p, layerOf[c], int32(c)})
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].p != kids[j].p {
			return kids[i].p < kids[j].p
		}
		if kids[i].l != kids[j].l {
			return kids[i].l > kids[j].l
		}
		return kids[i].c < kids[j].c
	})
	kidIdx := make([]int32, len(kids))
	for i, kr := range kids {
		kidIdx[i] = kr.c
	}
	var groups []corrGroup
	var groupOwner []int32
	for i := 0; i < len(kids); {
		j := i
		for j < len(kids) && kids[j].p == kids[i].p && kids[j].l == kids[i].l {
			j++
		}
		groups = append(groups, corrGroup{layer: kids[i].l, kidOff: int32(i), kidEnd: int32(j)})
		groupOwner = append(groupOwner, kids[i].p)
		i = j
	}
	// groupOwner is ascending, so per-node group ranges fall out of one scan.
	nodeGOff := make([]int32, n+1)
	gi := 0
	for v := 0; v < n; v++ {
		nodeGOff[v] = int32(gi)
		for gi < len(groups) && groupOwner[gi] == int32(v) {
			gi++
		}
	}
	nodeGOff[n] = int32(len(groups))

	// Gate sets — the higher-layer neighbors of each group's children —
	// are pure per-group computations over the snapshot: shard them with
	// per-group result slots, then flatten in group order.
	gateSlots := make([][]int32, len(groups))
	ko, _ := o.(dist.KernelObserver)
	dist.RunKernel("correction-setup", len(groups), dist.KernelShards(len(groups)), ko, func(_, lo, hi int) {
		var buf []int32
		for gi := lo; gi < hi; gi++ {
			grp := &groups[gi]
			buf = buf[:0]
			for _, c := range kidIdx[grp.kidOff:grp.kidEnd] {
				for _, u := range ix.NeighborIndices(int(c)) {
					if layerOf[u] > grp.layer {
						buf = append(buf, u)
					}
				}
			}
			sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
			out := make([]int32, 0, len(buf))
			for i, u := range buf {
				if i == 0 || u != buf[i-1] {
					out = append(out, u)
				}
			}
			gateSlots[gi] = out
		}
	})
	total := 0
	for _, gs := range gateSlots {
		total += len(gs)
	}
	gates := make([]int32, 0, total)
	for gi := range groups {
		groups[gi].gateOff = int32(len(gates))
		gates = append(gates, gateSlots[gi]...)
		groups[gi].gateEnd = int32(len(gates))
	}
	sh := &corrShared{groups: groups, kidIdx: kidIdx, gates: gates}
	return &correctionProgram{sh: sh, hasParent: hasParent, nodeGOff: nodeGOff, ttl: k + 5}
}
