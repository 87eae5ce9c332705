package core

import (
	"fmt"
	"math"

	"repro/internal/chordal"
	"repro/internal/colorreduce"
	"repro/internal/graph"
	"repro/internal/interval"
)

// IntervalMISResult is the outcome of the (1+ε)-approximate interval MIS.
type IntervalMISResult struct {
	Set     graph.Set
	K       int
	Rounds  int
	Anchors int
}

// MISIntervalK returns the paper's parameter k = ⌈2.5/ε + 0.5⌉.
func MISIntervalK(eps float64) int {
	k := int(math.Ceil(2.5/eps + 0.5))
	if k < 3 {
		k = 3
	}
	return k
}

// MISInterval implements Algorithm 5, the deterministic
// (1+ε)-approximation for Maximum Independent Set on interval graphs
// (Theorems 5–6): dominated vertices are discarded (leaving a proper
// interval graph of the same independence number); small-diameter
// components are solved exactly by a local coordinator; in large
// components a distance-k independent set I₁ is selected via the
// chain-anchor machinery (our stand-in for simulating MISUnitInterval on
// G^k), and exact maximum independent sets are computed in the segments
// between consecutive members and beyond the extremes.
//
// Every proper component needs an umbrella ordering, which also drives
// the diameter test, so a component that is not proper interval after
// the reduction (g was not an interval graph) is an error even when it
// is small.
func MISInterval(g *graph.Graph, eps float64) (*IntervalMISResult, error) {
	return misInterval(g, nil, eps)
}

// misInterval is MISInterval given path, a clique-path model of g, for
// the diameter tests: restricted to a proper component it models that
// induced subgraph, and interval.Diameter ignores the nodes outside it,
// so one model serves every component. With a nil path, the test is one
// BFS from the first node of the component's umbrella ordering: that
// node lies only in the first clique order[0..r(0)] of the ordering's
// clique path, so its interval ends first and its eccentricity is the
// diameter (the lemma at interval.Diameter).
func misInterval(g *graph.Graph, path []graph.Set, eps float64) (*IntervalMISResult, error) {
	if err := checkEpsilon(eps, 2.5, false); err != nil {
		return nil, err
	}
	k := MISIntervalK(eps)
	res := &IntervalMISResult{K: k}

	proper := interval.RemoveDominated(g)
	res.Rounds += 2 // each node compares closed neighborhoods with neighbors

	for _, comp := range proper.Components() {
		sub := proper.InducedSubgraph(comp)
		var order []graph.ID // sub's umbrella ordering, once computed
		diam := 0
		if path != nil {
			diam = interval.Diameter(sub, path)
		} else {
			var err error
			if order, err = umbrellaOrder(sub); err != nil {
				return nil, err
			}
			for _, d := range sub.BFSDistances(order[0]) {
				diam = max(diam, d)
			}
		}
		if diam <= 10*k {
			// A coordinator sees the whole component within 10k+1 hops.
			exact, err := chordal.MaximumIndependentSet(sub)
			if err != nil {
				return nil, fmt.Errorf("component MIS: %w", err)
			}
			// The coordinator's collection radius is covered by the
			// diameter-test charge below; components run concurrently.
			res.Set = res.Set.Union(exact)
			continue
		}
		if order == nil {
			var err error
			if order, err = umbrellaOrder(sub); err != nil {
				return nil, err
			}
		}
		segRounds, err := misLargeComponent(sub, order, k, res)
		if err != nil {
			return nil, err
		}
		if segRounds > res.Rounds {
			res.Rounds = segRounds
		}
	}
	res.Rounds += 10*k + 1 // the diameter test itself
	return res, nil
}

// umbrellaOrder is interval.UmbrellaOrder on a proper component, with
// the component-level error wording.
func umbrellaOrder(sub *graph.Graph) ([]graph.ID, error) {
	order, err := interval.UmbrellaOrder(sub)
	if err != nil {
		return nil, fmt.Errorf("component is not proper interval after reduction: %w", err)
	}
	return order, nil
}

// misLargeComponent handles one large proper-interval component, given
// its umbrella ordering.
func misLargeComponent(sub *graph.Graph, order []graph.ID, k int, res *IntervalMISResult) (int, error) {
	anchorRes, err := umbrellaAnchors(sub, order, k)
	if err != nil {
		return 0, fmt.Errorf("distance-k independent set: %w", err)
	}
	rounds := anchorRes.Rounds
	members := anchorRes.Anchors // positions along the line, ascending
	i1 := make([]graph.ID, len(members))
	for i, p := range members {
		i1[i] = order[p]
	}
	res.Anchors += len(i1)
	res.Set = res.Set.Union(graph.NewSet(i1...))

	// Solve each gap of I₁ exactly.
	blocked := make(map[graph.ID]bool)
	for _, u := range i1 {
		blocked[u] = true
		for _, w := range sub.Neighbors(u) {
			blocked[w] = true
		}
	}
	segmentMIS := func(lo, hi int) error { // positions (exclusive bounds handled by caller)
		var seg []graph.ID
		for p := lo; p <= hi; p++ {
			if !blocked[order[p]] {
				seg = append(seg, order[p])
			}
		}
		if len(seg) == 0 {
			return nil
		}
		exact, err := chordal.MaximumIndependentSet(sub.InducedSubgraph(seg))
		if err != nil {
			return err
		}
		res.Set = res.Set.Union(exact)
		return nil
	}
	if len(members) > 0 {
		if err := segmentMIS(0, members[0]-1); err != nil { // left of v_l
			return 0, err
		}
		if err := segmentMIS(members[len(members)-1]+1, len(order)-1); err != nil { // right of v_r
			return 0, err
		}
	}
	maxGap := 0
	for i := 0; i+1 < len(members); i++ {
		if err := segmentMIS(members[i]+1, members[i+1]-1); err != nil {
			return 0, err
		}
		if d := sub.Distance(i1[i], i1[i+1]); d > maxGap {
			maxGap = d
		}
	}
	// Segment solving is local: each pair coordinates a region of its gap
	// diameter; all segments run concurrently.
	rounds += maxGap + 2
	return rounds, nil
}

// umbrellaAnchors selects Algorithm 5's distance-k independent set I₁:
// anchors on the umbrella chain at pairwise graph distance ≥ k+1.
func umbrellaAnchors(sub *graph.Graph, order []graph.ID, k int) (*colorreduce.AnchorResult, error) {
	return colorreduce.SelectAnchors(order, func(i, j int) int {
		if d := sub.Distance(order[i], order[j]); d >= 0 {
			return d
		}
		return k + 1
	}, k+1)
}
