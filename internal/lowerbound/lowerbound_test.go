package lowerbound

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colorreduce"
	"repro/internal/graph"
)

// TestAnchorMISPinned pins the anchor chain of AnchorMIS(2000, 8, 1) —
// its exact positions, rounds and phases, as recorded when the anchor
// routine still kept its chain as a map-backed graph — and the result
// built on it: the selection is part of the E13 rows.
func TestAnchorMISPinned(t *testing.T) {
	want := []int{4, 22, 36, 50, 63, 78, 98, 108, 122, 139, 147, 161, 173, 186, 196,
		207, 220, 236, 246, 259, 276, 284, 298, 307, 321, 336, 346, 369, 385, 394,
		412, 421, 435, 445, 453, 462, 477, 487, 504, 514, 522, 536, 544, 553, 564,
		579, 600, 613, 628, 645, 667, 677, 685, 705, 714, 722, 732, 741, 755, 766,
		789, 800, 810, 826, 852, 865, 880, 893, 909, 918, 934, 956, 969, 982, 991,
		1004, 1012, 1021, 1036, 1052, 1080, 1089, 1100, 1110, 1130, 1140, 1161, 1178, 1194, 1204,
		1214, 1228, 1241, 1257, 1272, 1286, 1294, 1313, 1333, 1342, 1350, 1359, 1371, 1393, 1401,
		1410, 1432, 1448, 1462, 1476, 1491, 1501, 1514, 1523, 1540, 1549, 1563, 1571, 1583, 1601,
		1615, 1624, 1645, 1653, 1663, 1672, 1689, 1706, 1719, 1729, 1737, 1746, 1762, 1777, 1796,
		1808, 1821, 1836, 1846, 1855, 1863, 1876, 1884, 1904, 1912, 1926, 1944, 1963, 1974, 1990}
	ids := make([]graph.ID, 2000)
	for p, id := range rand.New(rand.NewSource(1)).Perm(len(ids)) {
		ids[p] = graph.ID(id)
	}
	got, err := colorreduce.SelectAnchors(ids, func(i, j int) int { return j - i }, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Anchors, want) || got.Rounds != 363 || got.Phases != 9 {
		t.Fatalf("anchors %v, %d rounds, %d phases; want %v, 363 rounds, 9 phases", got.Anchors, got.Rounds, got.Phases, want)
	}
	res, err := AnchorMIS(2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 365 || res.Anchors != len(want) || len(res.Set) != 966 {
		t.Fatalf("AnchorMIS(2000, 8, 1): %d rounds, %d anchors, |I| = %d; want 365, %d, 966", res.Rounds, res.Anchors, len(res.Set), len(want))
	}
}

func TestAnchorMISIndependentAndNonEmpty(t *testing.T) {
	for _, r := range []int{2, 4, 8} {
		for seed := int64(0); seed < 5; seed++ {
			res, err := AnchorMIS(300, r, seed)
			if err != nil {
				t.Fatalf("r=%d seed=%d: %v", r, seed, err)
			}
			if len(res.Set) == 0 {
				t.Fatalf("r=%d seed=%d: empty set", r, seed)
			}
			if res.Rounds <= 0 {
				t.Fatalf("r=%d seed=%d: no rounds reported", r, seed)
			}
		}
	}
}

func TestAnchorMISRatioImprovesWithR(t *testing.T) {
	r2, _, err := MeasuredRatio(3000, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	r32, _, err := MeasuredRatio(3000, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r32 >= r2 {
		t.Fatalf("ratio did not improve: r=2 → %v, r=32 → %v", r2, r32)
	}
	if r32 > 1.1 {
		t.Fatalf("r=32 ratio %v too far from 1", r32)
	}
}

func TestMeasuredRatioAboveTheoremBound(t *testing.T) {
	// Theorem 9: no r-round algorithm beats 1/(1 − 2/(8r+12)); our
	// concrete algorithm at matching round budgets must respect it.
	for _, r := range []int{2, 4, 8} {
		measured, rounds, err := MeasuredRatio(4000, r, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		if bound := TheoremBound(int(rounds)); measured < bound-0.01 {
			t.Fatalf("r=%d: measured ratio %v below the bound %v at its round budget", r, measured, bound)
		}
	}
}

func TestRatioScalesLikeOneOverR(t *testing.T) {
	// ε(r) = ratio−1 should shrink roughly linearly in 1/r: ε(4)/ε(16)
	// should be in the ballpark of 4.
	e4, _, err := MeasuredRatio(6000, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	e16, _, err := MeasuredRatio(6000, 16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	factor := (e4 - 1) / (e16 - 1)
	if factor < 2 || factor > 9 {
		t.Fatalf("ε(4)/ε(16) = %v, expected ≈ 4 (Θ(1/r) scaling)", factor)
	}
}

func TestTheoremBoundShape(t *testing.T) {
	prev := TheoremBound(1)
	for _, r := range []int{2, 4, 8, 16, 64} {
		b := TheoremBound(r)
		if b >= prev {
			t.Fatalf("bound not decreasing at r=%d", r)
		}
		prev = b
	}
	if prev < 1 || prev > 1.01 {
		t.Fatalf("bound at r=64 should be just above 1, got %v", prev)
	}
}

func TestAnchorMISErrors(t *testing.T) {
	if _, err := AnchorMIS(0, 2, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := AnchorMIS(10, 1, 1); err == nil {
		t.Fatal("expected error for r<2")
	}
}
