package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. The tables below are the
// single definition of names, units and bounds; BENCHMARK.json at the
// repository root must list the same (bench_test.go checks it).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the base median by which an end-to-end
	// metric may worsen before compare calls it a regression.
	bound float64
	// slack is an absolute change, in the metric's unit, that compare
	// never calls a regression however large a share of the base it is.
	slack float64
	// exact marks deterministic counts: for one seed they must repeat
	// exactly, across runs, passes and transports.
	exact bool
}

// endToEnd are the metrics a user of the pipelines sees, measured with
// tracing off. Each bound is about three times the spread over ten seeds
// measured on a shared 2-vCPU host (README.md). run_s also follows the
// host's drift, which has reached 13% over minutes, so it gets the widest
// bound.
var endToEnd = []metricDef{
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	// Set-ups take milliseconds, where host jitter alone moves the median
	// by a quarter; compare needs 50 ms as well before it calls them worse.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, slack: 0.05},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.05},
	// Shard hosts' peak RSS moves with how the seed's relabelling splits
	// the graph (spread up to 0.05 on color-wire2).
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

// perLayer are the metrics of single layers, taken from traced runs.
// A layer a workload never enters reports 0.
var perLayer = []metricDef{
	{name: "flood.wall_s", unit: "s", better: "lower"},
	{name: "flood.rounds", unit: "rounds", better: "lower", exact: true},
	{name: "flood.messages", unit: "count", better: "lower", exact: true},
	{name: "flood.volume", unit: "records", better: "lower", exact: true},
	{name: "flood.iterations", unit: "count", better: "lower", exact: true},
	{name: "flood.round_p99_ms", unit: "ms", better: "lower"},
	{name: "flood.imbalance", unit: "ratio", better: "lower"},
	{name: "decide.wall_s", unit: "s", better: "lower"},
	{name: "decide.items", unit: "count", better: "lower", exact: true},
	{name: "decide.imbalance", unit: "ratio", better: "lower"},
	{name: "peel.wall_s", unit: "s", better: "lower"},
	{name: "peel.layers", unit: "count", better: "lower", exact: true},
	{name: "color_paths.wall_s", unit: "s", better: "lower"},
	{name: "color_paths.imbalance", unit: "ratio", better: "lower"},
	{name: "correction.wall_s", unit: "s", better: "lower"},
	{name: "correction.rounds", unit: "rounds", better: "lower", exact: true},
	{name: "correction.messages", unit: "count", better: "lower", exact: true},
	{name: "mis_components.wall_s", unit: "s", better: "lower"},
	{name: "mis_components.launches", unit: "count", better: "lower", exact: true},
	{name: "wire.in_mb", unit: "MB", better: "lower"},
	{name: "wire.out_mb", unit: "MB", better: "lower"},
	{name: "wire.bytes_per_round", unit: "B/round", better: "lower"},
	{name: "setup.gen_s", unit: "s", better: "lower"},
	{name: "setup.snapshot_s", unit: "s", better: "lower"},
	{name: "setup.cluster_s", unit: "s", better: "lower"},
	{name: "gc.count", unit: "count", better: "lower"},
	{name: "gc.pause_ms", unit: "ms", better: "lower"},
	{name: "heap.peak_mb", unit: "MB", better: "lower"},
	{name: "residual.wall_s", unit: "s", better: "lower"},
	{name: "trace.run_s", unit: "s", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "local_rounds", unit: "rounds", better: "lower", exact: true},
	{name: "color_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "mis_ratio", unit: "ratio", better: "lower", exact: true},
}

// layerWalls are the per-layer wall times that, with residual.wall_s,
// add up to the traced run's wall time (trace.run_s).
var layerWalls = []string{
	"flood.wall_s", "decide.wall_s", "peel.wall_s",
	"color_paths.wall_s", "correction.wall_s", "mis_components.wall_s",
}

// stats summarizes the samples of one metric. Quartiles use the
// "exclusive" method of Python's statistics.quantiles, so spreads read
// the same here as in any external analysis of the printed values.
type stats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) stats {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return stats{}
	}
	st := stats{Min: s[0], Max: s[n-1], N: n}
	if n%2 == 1 {
		st.Median = s[n/2]
	} else {
		st.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		st.Q1, st.Q3 = st.Median, st.Median
		return st
	}
	quart := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	st.Q1, st.Q3 = quart(1), quart(3)
	return st
}

// relIQR is the interquartile range as a share of the median.
func (s stats) relIQR() float64 {
	if m := math.Abs(s.Median); m > 0 {
		return (s.Q3 - s.Q1) / m
	}
	return 0
}

// sameCount reports whether two deterministic counts (or ratios of
// counts) agree; the tolerance only absorbs float formatting.
func sameCount(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// recorder collects the samples of every metric over one invocation.
type recorder map[string][]float64

func (r recorder) add(name string, v float64) { r[name] = append(r[name], v) }
