package obs

import "math/bits"

// histBuckets is the number of log₂ buckets: bucket 0 holds the value 0,
// bucket b ≥ 1 holds values with bit length b, i.e. [2^(b-1), 2^b − 1].
// Non-negative int64 values have bit length at most 63, so 64 buckets
// cover the full range with no overflow arithmetic anywhere.
const histBuckets = 64

// Hist is a fixed-size log₂-bucketed streaming histogram of non-negative
// int64 samples (nanosecond latencies in this package). The zero value
// is ready to use and Record touches only the embedded arrays — no
// allocation, ever — so it serves the Collector's in-flight per-phase
// aggregation and Summarize's per-phase round-latency quantiles alike.
// Negative samples clamp to 0.
//
// Quantile interpolates linearly inside the winning bucket and clamps to
// the observed [Min, Max], so it is exact for 0-, 1-, and 2-sample
// histograms and within a factor of 2 otherwise; it is monotone
// nondecreasing in p, which the reporting layer relies on (p50 ≤ p99 in
// every table, no matter the distribution).
type Hist struct {
	counts   [histBuckets]int64
	n        int64
	sum      int64
	min, max int64
}

// Record adds one sample.
//
//chordalvet:hotpath budget=0 per-round metrics aggregation must stay allocation-free
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Reset returns the histogram to its empty state without allocating.
func (h *Hist) Reset() {
	*h = Hist{}
}

// bucketBounds returns the value range [lo, hi] covered by bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	return int64(1) << (b - 1), int64(1)<<b - 1
}

// Quantile returns an estimate of the p-quantile (p in [0, 1]; values
// outside clamp). Empty histograms report 0. The estimate interpolates
// within the winning log₂ bucket and clamps to the observed min/max.
func (h *Hist) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// rank is the 1-based position of the wanted sample in sorted order.
	rank := p * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for b := range h.counts {
		if h.counts[b] == 0 {
			continue
		}
		cnt := float64(h.counts[b])
		if cum+cnt >= rank {
			lo, hi := bucketBounds(b)
			// The float interpolation can round up to hi-lo+1; in the top
			// bucket (hi = MaxInt64) that would overflow lo+off past the
			// int64 ceiling, so bound the offset to the bucket width.
			off := int64(((rank - cum) / cnt) * float64(hi-lo))
			if off < 0 || off > hi-lo {
				off = hi - lo
			}
			v := lo + off
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += cnt
	}
	return h.max
}
