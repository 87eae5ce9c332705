// Package lowerbound reproduces the shape of Theorem 9: every
// (1+ε)-approximate MIS algorithm on labelled paths needs Ω(1/ε) rounds.
// It implements a concrete LOCAL algorithm — anchors at pairwise distance
// ≥ r split the path into segments, each filled with an exact alternating
// independent set — whose measured approximation ratio is 1 + Θ(1/r),
// matching the theorem's 1 + Ω(1/r) bound from above. Plotting achievable
// ratio against the round budget reproduces the rounds ≈ Θ(1/ε)
// trade-off.
package lowerbound

import (
	"fmt"
	"math/rand"

	"repro/internal/colorreduce"
	"repro/internal/graph"
	"repro/internal/verify"
)

// Result is one run of the anchor algorithm.
type Result struct {
	Set    graph.Set
	Rounds int
	// Anchors counts the sacrificed separator nodes — the source of the
	// Θ(1/r) loss.
	Anchors int
}

// AnchorMIS runs the r-parameterized LOCAL MIS algorithm on the path P_n
// with node labels drawn uniformly at random (Theorem 9's input model):
// a set of anchor nodes with pairwise distance at least r is selected by
// the deterministic chain-anchor routine; anchors stay out of the
// independent set, and every segment between consecutive anchors
// contributes an exact alternating independent set, losing at most one
// node per anchor.
func AnchorMIS(n, r int, seed int64) (*Result, error) {
	if n <= 0 || r < 2 {
		return nil, fmt.Errorf("need n > 0, r >= 2 (got n=%d r=%d)", n, r)
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]graph.ID, n) // ids[p] = label of the node at position p
	g := graph.New()
	for p, id := range rng.Perm(n) {
		ids[p] = graph.ID(id)
		g.AddNode(ids[p])
		if p > 0 {
			g.AddEdge(ids[p-1], ids[p])
		}
	}
	// Positions i < j on the path are j − i apart.
	anchorRes, err := colorreduce.SelectAnchors(ids, func(i, j int) int { return j - i }, r)
	if err != nil {
		return nil, err
	}

	isAnchor := make([]bool, n)
	for _, p := range anchorRes.Anchors {
		isAnchor[p] = true
	}
	var out graph.Set
	// Alternate-fill each maximal anchor-free run of positions.
	for p := 0; p < n; {
		if isAnchor[p] {
			p++
			continue
		}
		start := p
		for p < n && !isAnchor[p] {
			p++
		}
		for q := start; q < p; q += 2 {
			out = append(out, ids[q])
		}
	}
	out = graph.NewSet(out...)
	if err := verify.IndependentSet(g, out); err != nil {
		return nil, fmt.Errorf("anchor algorithm produced a dependent set: %w", err)
	}
	return &Result{Set: out, Rounds: anchorRes.Rounds + 2, Anchors: len(anchorRes.Anchors)}, nil
}

// MeasuredRatio runs AnchorMIS over trials seeds and returns the average
// approximation ratio ⌈n/2⌉/|I| and the average measured rounds.
func MeasuredRatio(n, r, trials int, seed int64) (ratio, rounds float64, err error) {
	opt := float64((n + 1) / 2)
	sumRatio, sumRounds := 0.0, 0.0
	for t := 0; t < trials; t++ {
		res, err := AnchorMIS(n, r, seed+int64(t))
		if err != nil {
			return 0, 0, err
		}
		if len(res.Set) == 0 {
			return 0, 0, fmt.Errorf("empty independent set")
		}
		sumRatio += opt / float64(len(res.Set))
		sumRounds += float64(res.Rounds)
	}
	return sumRatio / float64(trials), sumRounds / float64(trials), nil
}

// TheoremBound returns Theorem 9's lower bound on the approximation
// factor of any r-round algorithm: from the proof,
// ⌈n/2⌉ ≤ (1+ε)·n·(1/2 − 1/(8r+12) + O(1/n)), hence as n → ∞,
// 1+ε ≥ 1/(1 − 2/(8r+12)).
func TheoremBound(r int) float64 {
	return 1 / (1 - 2/float64(8*r+12))
}
