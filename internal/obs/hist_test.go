package obs

import (
	"math"
	"testing"
)

// The accessors below read back what Record keeps; only these tests
// use them.

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.n }

// Sum returns the sum of recorded samples.
func (h *Hist) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Hist) Mean() int64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty hist not all-zero: count=%d sum=%d min=%d max=%d mean=%d",
			h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean())
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := h.Quantile(p); q != 0 {
			t.Errorf("empty Quantile(%v)=%d, want 0", p, q)
		}
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Hist
	h.Record(12345)
	if h.Count() != 1 || h.Sum() != 12345 || h.Min() != 12345 || h.Max() != 12345 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	// Every quantile of a one-sample distribution is that sample: the
	// bucket interpolation must clamp to [min, max].
	for _, p := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if q := h.Quantile(p); q != 12345 {
			t.Errorf("Quantile(%v)=%d, want 12345", p, q)
		}
	}
}

func TestHistZeroAndNegative(t *testing.T) {
	var h Hist
	h.Record(0)
	h.Record(-7) // clamps to 0
	if h.Count() != 2 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("Quantile(0.5)=%d, want 0", q)
	}
}

// TestHistBucketBoundaries records values that straddle every power-of-2
// boundary in a small range and checks the estimates never escape the
// true value's bucket (the log-bucket error guarantee) and that exact
// min/max survive.
func TestHistBucketBoundaries(t *testing.T) {
	var h Hist
	vals := []int64{1, 2, 3, 4, 7, 8, 15, 16, 31, 32}
	for _, v := range vals {
		h.Record(v)
	}
	if h.Min() != 1 || h.Max() != 32 {
		t.Fatalf("min=%d max=%d, want 1, 32", h.Min(), h.Max())
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0)=%d, want exact min 1", got)
	}
	if got := h.Quantile(1); got != 32 {
		t.Errorf("Quantile(1)=%d, want exact max 32", got)
	}
	// The median of the 10 samples is between 7 and 8; the log-bucket
	// estimate may land anywhere in [4, 15] (the buckets holding ranks
	// 5 and 6) but no further.
	if got := h.Quantile(0.5); got < 4 || got > 15 {
		t.Errorf("Quantile(0.5)=%d, want within [4, 15]", got)
	}
	// bucketBounds sanity at the boundaries themselves.
	for b, want := range map[int][2]int64{0: {0, 0}, 1: {1, 1}, 2: {2, 3}, 3: {4, 7}, 4: {8, 15}} {
		lo, hi := bucketBounds(b)
		if lo != want[0] || hi != want[1] {
			t.Errorf("bucketBounds(%d)=[%d,%d], want [%d,%d]", b, lo, hi, want[0], want[1])
		}
	}
}

// TestHistExtremeValues drives Record and Quantile through the int64
// extremes: MinInt64 must clamp to bucket 0 like any negative span, and
// MaxInt64 must land in the top bucket (63) with no overflow anywhere —
// bucketBounds(63) sits right at the int64 ceiling, so this is the
// bucket where any overflow arithmetic would surface as a panic or a
// negative estimate.
func TestHistExtremeValues(t *testing.T) {
	var h Hist
	h.Record(math.MinInt64) // negative span: clamps to 0
	h.Record(math.MaxInt64)
	if h.Count() != 2 || h.Min() != 0 || h.Max() != math.MaxInt64 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if h.counts[0] != 1 || h.counts[63] != 1 {
		t.Fatalf("bucket spread: counts[0]=%d counts[63]=%d", h.counts[0], h.counts[63])
	}
	lo, hi := bucketBounds(63)
	if lo != int64(1)<<62 || hi != math.MaxInt64 {
		t.Fatalf("bucketBounds(63)=[%d,%d], want [2^62, MaxInt64]", lo, hi)
	}
	for _, p := range []float64{0, 0.5, 1} {
		q := h.Quantile(p)
		if q < 0 || q > math.MaxInt64 {
			t.Fatalf("Quantile(%v)=%d escaped [0, MaxInt64]", p, q)
		}
	}
	if h.Quantile(1) != math.MaxInt64 {
		t.Errorf("Quantile(1)=%d, want MaxInt64", h.Quantile(1))
	}
}

// TestHistQuantileArgumentClamps: p outside [0, 1] clamps, and a NaN p —
// every comparison against NaN is false — must still return a value
// inside the observed range instead of panicking.
func TestHistQuantileArgumentClamps(t *testing.T) {
	var h Hist
	for _, v := range []int64{5, 10, 20} {
		h.Record(v)
	}
	if got, want := h.Quantile(-3), h.Quantile(0); got != want {
		t.Errorf("Quantile(-3)=%d, want Quantile(0)=%d", got, want)
	}
	if got, want := h.Quantile(7), h.Quantile(1); got != want {
		t.Errorf("Quantile(7)=%d, want Quantile(1)=%d", got, want)
	}
	if q := h.Quantile(math.NaN()); q < h.Min() || q > h.Max() {
		t.Errorf("Quantile(NaN)=%d escaped [%d, %d]", q, h.Min(), h.Max())
	}
}

// TestHistResetAndEmptyMerges: Reset returns to the ready zero state
// the per-phase collector relies on between phases, and a reset hist
// records afresh.
func TestHistResetAndEmptyMerges(t *testing.T) {
	var h Hist
	h.Record(42)
	h.Reset()
	if h != (Hist{}) || h.Quantile(0.5) != 0 {
		t.Fatalf("reset hist not empty: count=%d sum=%d", h.Count(), h.Sum())
	}
	h.Record(9)
	if h.Count() != 1 || h.Min() != 9 || h.Max() != 9 || h.Quantile(0.5) != 9 {
		t.Errorf("record after reset: count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
}

// TestHistQuantileMonotone sweeps p over a spread-out deterministic
// sample set and requires Quantile to be nondecreasing — the property
// every latency table (p50 ≤ p90 ≤ p99) depends on.
func TestHistQuantileMonotone(t *testing.T) {
	var h Hist
	v := int64(1)
	for i := 0; i < 1000; i++ {
		// Multiplicative walk over several orders of magnitude,
		// deterministic so the test never flakes.
		v = (v*2654435761 + 1) % 10_000_000
		h.Record(v)
	}
	prev := int64(-1)
	for p := 0.0; p <= 1.0; p += 0.005 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: p=%v gives %d after %d", p, q, prev)
		}
		prev = q
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1)=%d, want max %d", h.Quantile(1), h.Max())
	}
}
