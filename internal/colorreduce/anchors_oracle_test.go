package colorreduce

import (
	"slices"
	"testing"
)

func TestSelectAnchorsOracleGaps(t *testing.T) {
	for _, n := range []int{100, 500, 2000} {
		ids, dist := unitChain(n)
		res, err := SelectAnchors(ids, dist, 16)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1
		maxGap := 0
		for _, a := range res.Anchors {
			if prev >= 0 {
				gap := a - prev
				if gap < 16 {
					t.Fatalf("n=%d: anchors %d,%d at gap %d < 16", n, prev, a, gap)
				}
				if gap > maxGap {
					maxGap = gap
				}
			}
			prev = a
		}
		// Overshoot stays bounded: anchors never merge two already-valid
		// segments, so gaps stay below ~4× the threshold in practice.
		if maxGap > 16*6 {
			t.Fatalf("n=%d: max gap %d suspiciously large", n, maxGap)
		}
		if n >= 500 && len(res.Anchors) < n/(16*6) {
			t.Fatalf("n=%d: only %d anchors", n, len(res.Anchors))
		}
	}
}

func TestSelectAnchorsPhaseCountStable(t *testing.T) {
	// Phase count should not grow linearly with n (it is ~log in the
	// anchor count with the hashed priorities).
	ids, dist := unitChain(200)
	small, err := SelectAnchors(ids, dist, 12)
	if err != nil {
		t.Fatal(err)
	}
	ids, dist = unitChain(4000)
	large, err := SelectAnchors(ids, dist, 12)
	if err != nil {
		t.Fatal(err)
	}
	if large.Phases > 4*small.Phases+10 {
		t.Fatalf("phases grew from %d (n=200) to %d (n=4000)", small.Phases, large.Phases)
	}
}

func TestSelectAnchorsDeterministic(t *testing.T) {
	ids, dist := unitChain(300)
	a, err := SelectAnchors(ids, dist, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectAnchors(ids, dist, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Anchors, b.Anchors) {
		t.Fatal("anchor selection not deterministic")
	}
}
