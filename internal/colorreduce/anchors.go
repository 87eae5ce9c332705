package colorreduce

import (
	"fmt"

	"repro/internal/graph"
)

// AnchorResult reports the anchors chosen on a path and the
// communication rounds charged.
type AnchorResult struct {
	Anchors []int // positions on the path, ascending
	Rounds  int
	Phases  int
}

// SelectAnchors chooses anchor positions on the path ids[0], …,
// ids[len(ids)-1] such that the distance between consecutive anchors is
// at least minGap (segments facing a path end may be shorter — end blocks
// have only one recoloring zone). dist(i, j), called with positions
// i < j, is the distance between the path nodes at i and j; a gap counts
// as at least 1. ids are distinct chain IDs: they seed the priorities.
// Anchors delimit the blocks of the interval coloring routine; minGap
// lower-bounds block diameters.
//
// Structure: every position starts as an anchor; drop phases run until
// stable: an anchor with a too-small anchor-facing gap drops unless an
// adjacent droppable anchor has higher priority, so adjacent anchors
// never drop simultaneously and gaps grow without cascading overshoot.
// Priorities are rehashed every phase (phaseHash over the chain ID and
// the phase, ties broken by the larger ID), which makes adversarial ID
// layouts (e.g. monotone runs) behave like random ones while staying
// fully deterministic. Each phase costs three exchanges (gap measurement,
// priority exchange, decision) at the current largest gap.
func SelectAnchors(ids []graph.ID, dist func(i, j int) int, minGap int) (*AnchorResult, error) {
	res := &AnchorResult{}
	// live holds the current anchors; gap[j] is the distance from live[j]
	// to live[j+1]. A drop only changes the gap across the dropped anchor,
	// so the other distances carry over between phases.
	live := make([]int, len(ids))
	for i := range live {
		live[i] = i
	}
	gap := make([]int, max(len(ids)-1, 0))
	for j := range gap {
		gap[j] = max(dist(j, j+1), 1)
	}
	droppable := make([]bool, len(ids))
	drop := make([]bool, len(ids))
	higher := func(a, b int) bool {
		ha, hb := phaseHash(ids[a], res.Phases), phaseHash(ids[b], res.Phases)
		if ha != hb {
			return ha > hb
		}
		return ids[a] > ids[b]
	}
	for {
		hopCost := 1
		for j := range live {
			// A side facing a path end is unbounded: only anchor-to-anchor
			// gaps must respect minGap.
			droppable[j] = j > 0 && gap[j-1] < minGap || j+1 < len(live) && gap[j] < minGap
			if j+1 < len(live) {
				hopCost = max(hopCost, gap[j])
			}
		}
		drops := 0
		for j, p := range live {
			drop[j] = droppable[j] &&
				!(j > 0 && droppable[j-1] && higher(live[j-1], p)) &&
				!(j+1 < len(live) && droppable[j+1] && higher(live[j+1], p))
			if drop[j] {
				drops++
			}
		}
		res.Phases++
		res.Rounds += 3 * hopCost
		if drops == 0 {
			break
		}
		// Compact in place; dropped anchors are never adjacent, so the
		// previous survivor of live[j] is live[j-1] or live[j-2].
		n := 0
		for j, p := range live {
			if drop[j] {
				continue
			}
			if n > 0 && drop[j-1] {
				gap[n-1] = max(dist(live[n-1], p), 1)
			} else if n > 0 {
				gap[n-1] = gap[j-1]
			}
			live[n] = p
			n++
		}
		live, gap = live[:n], gap[:max(n-1, 0)]
		if res.Phases > len(ids)+2 {
			return nil, fmt.Errorf("anchor selection did not stabilize")
		}
	}
	res.Anchors = live
	return res, nil
}

// phaseHash is a deterministic splitmix-style mixer over (node, phase).
func phaseHash(v graph.ID, phase int) uint64 {
	x := uint64(v)*0x9E3779B97F4A7C15 + uint64(phase)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
