package colorreduce

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestLinialParams(t *testing.T) {
	for _, m := range []int{4, 10, 100, 10000, 1 << 20} {
		q, d := linialParams(m, 2)
		if !isPrime(q) {
			t.Fatalf("m=%d: q=%d not prime", m, q)
		}
		if q <= (d+1)*2 {
			t.Fatalf("m=%d: q=%d too small for d=%d", m, q, d)
		}
		pow := 1
		for i := 0; i <= d; i++ {
			pow *= q
		}
		if pow < m {
			t.Fatalf("m=%d: q^(d+1)=%d < m", m, pow)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true, 13: true}
	for n := -2; n <= 14; n++ {
		if isPrime(n) != primes[n] {
			t.Fatalf("isPrime(%d) = %v", n, isPrime(n))
		}
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	for c := 0; c < 500; c++ {
		digits := digitsBaseQ(c, 7, 3)
		back := 0
		for i := len(digits) - 1; i >= 0; i-- {
			back = back*7 + digits[i]
		}
		if back != c {
			t.Fatalf("digits round trip failed for %d", c)
		}
	}
}

func TestReduceToDeltaPlusOnePath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 500} {
		g := gen.Path(n)
		colors, rounds, err := ReduceToDeltaPlusOne(g, 2, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkColoring(t, g, colors, 3)
		if n >= 100 && rounds > 80 {
			t.Fatalf("n=%d: used %d rounds, expected O(log* n) + constant", n, rounds)
		}
	}
}

func TestReduceRoundsGrowSlowly(t *testing.T) {
	// O(log* n): blowing the ID space up from 2·10³ to 10⁹ may add only a
	// few Linial iterations on top of the constant elimination tail.
	g := gen.Path(500)
	_, r1, err := ReduceToDeltaPlusOne(g, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := ReduceToDeltaPlusOne(g, 2, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r2 > r1+6 {
		t.Fatalf("rounds grew from %d to %d; expected log* growth", r1, r2)
	}
}

func TestReduceOnCycle(t *testing.T) {
	// Cycles have max degree 2 as well; Linial reduction handles them.
	g := gen.Cycle(101)
	colors, _, err := ReduceToDeltaPlusOne(g, 2, 101)
	if err != nil {
		t.Fatal(err)
	}
	checkColoring(t, g, colors, 3)
}

func TestReduceScatteredIDs(t *testing.T) {
	// Path with random large IDs.
	rng := rand.New(rand.NewSource(5))
	ids := rng.Perm(100000)[:200]
	g := graph.New()
	for i := 0; i+1 < len(ids); i++ {
		g.AddEdge(graph.ID(ids[i]), graph.ID(ids[i+1]))
	}
	colors, _, err := ReduceToDeltaPlusOne(g, 2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	checkColoring(t, g, colors, 3)
}

func TestReduceHigherDegree(t *testing.T) {
	g := gen.Tree(80, 3)
	delta := g.MaxDegree()
	colors, _, err := ReduceToDeltaPlusOne(g, delta, 80)
	if err != nil {
		t.Fatal(err)
	}
	checkColoring(t, g, colors, delta+1)
}

func TestReduceRejectsWrongDelta(t *testing.T) {
	if _, _, err := ReduceToDeltaPlusOne(gen.Star(5), 2, 10); err == nil {
		t.Fatal("expected error for degree > delta")
	}
}

func checkColoring(t *testing.T, g *graph.Graph, colors map[graph.ID]int, palette int) {
	t.Helper()
	shifted := make(map[graph.ID]int, len(colors))
	for v, c := range colors {
		if c < 0 || c >= palette {
			t.Fatalf("node %d has color %d outside [0,%d)", v, c, palette)
		}
		shifted[v] = c + 1
	}
	if _, err := verify.Coloring(g, shifted); err != nil {
		t.Fatal(err)
	}
}

func TestMISChainMaximal(t *testing.T) {
	for _, n := range []int{1, 2, 5, 50, 300} {
		g := gen.Path(n)
		is, _, err := MISChain(g, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := verify.MaximalIndependentSet(g, is); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestMISFromColoringBadInput(t *testing.T) {
	g := gen.Path(3)
	if _, _, err := MISFromColoring(g, map[graph.ID]int{0: 0, 1: 1}, 3); err == nil {
		t.Fatal("expected error for missing color")
	}
}

// weightedChain returns the IDs 0..len(weights) of a path whose
// consecutive positions i, i+1 lie weights[i] apart, and its distance.
func weightedChain(weights []int) ([]graph.ID, func(i, j int) int) {
	prefix := make([]int, len(weights)+1)
	ids := make([]graph.ID, len(prefix))
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
		ids[i+1] = graph.ID(i + 1)
	}
	return ids, func(i, j int) int { return prefix[j] - prefix[i] }
}

// unitChain is weightedChain with n nodes one apart.
func unitChain(n int) ([]graph.ID, func(i, j int) int) {
	weights := make([]int, max(n-1, 0))
	for i := range weights {
		weights[i] = 1
	}
	return weightedChain(weights)
}

func TestSelectAnchorsGaps(t *testing.T) {
	// A 60-node chain with unit weights and minGap 7: consecutive anchors
	// must be at least 7 apart.
	ids, dist := unitChain(60)
	res, err := SelectAnchors(ids, dist, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anchors) == 0 {
		t.Fatal("no anchors selected on a long chain")
	}
	checkAnchorGaps(t, dist, res.Anchors, 7)
}

func TestSelectAnchorsShortChain(t *testing.T) {
	// Chains shorter than minGap keep at most one anchor.
	ids, dist := weightedChain([]int{1, 1, 1})
	res, err := SelectAnchors(ids, dist, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anchors) > 1 {
		t.Fatalf("short chain kept %d anchors: %v", len(res.Anchors), res.Anchors)
	}
}

func TestSelectAnchorsWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := make([]int, 80)
	for i := range weights {
		weights[i] = 1 + rng.Intn(3)
	}
	ids, dist := weightedChain(weights)
	res, err := SelectAnchors(ids, dist, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkAnchorGaps(t, dist, res.Anchors, 9)
}

// checkAnchorGaps verifies the anchor positions ascend and consecutive
// anchors lie at distance >= minGap.
func checkAnchorGaps(t *testing.T, dist func(i, j int) int, anchors []int, minGap int) {
	t.Helper()
	for i := 1; i < len(anchors); i++ {
		if anchors[i] <= anchors[i-1] {
			t.Fatalf("anchor positions not ascending: %v", anchors)
		}
		if d := dist(anchors[i-1], anchors[i]); d < minGap {
			t.Fatalf("anchors at positions %d,%d lie %d < %d apart", anchors[i-1], anchors[i], d, minGap)
		}
	}
}
