package main

import (
	"strings"

	"repro/internal/obs"
)

// layerMetrics attributes one traced pipeline run to its layers, using
// only the spans the program already emits (obs trace schema v3):
//
//   - flood: the "prune-iNN" phase spans. A span runs from the flood's
//     start to the decide label, so it also holds the iteration's
//     clique-cache preparation, and on partitioned runs the wire and
//     barrier time, which the coordinator cannot see into.
//   - decide: the "decide" kernel row. The "decide-iNN" phase span is not
//     used: the last one also swallows the oracle peel, color-paths and
//     the centralized correction, because no phase is set between them;
//     the "engine[decide-iNN]" rows re-label the same shard spans.
//   - color-paths and mis-components: their kernel rows.
//   - correction: the "correction" phase span (the correction choreography
//     from its label to Collector.Finish).
//
// Peel is not taken from the trace (its "peel-measure" kernel covers only
// part of it); the caller times it as a standalone call. A layer the run
// never entered has no entry.
func layerMetrics(events []obs.Event) map[string]float64 {
	s := obs.Summarize(events)
	v := map[string]float64{}
	for _, p := range s.Phases {
		switch {
		case strings.HasPrefix(p.Phase, "prune-"):
			v["flood.wall_s"] += seconds(p.WallNS)
			v["flood.rounds"] += float64(p.Rounds)
			v["flood.messages"] += float64(p.Messages)
			v["flood.volume"] += float64(p.Volume)
			v["flood.iterations"]++
		case p.Phase == "correction":
			v["correction.wall_s"] += seconds(p.WallNS)
			v["correction.rounds"] += float64(p.Rounds)
			v["correction.messages"] += float64(p.Messages)
		}
	}
	for _, k := range s.Kernels {
		switch {
		case k.Kernel == "decide":
			v["decide.wall_s"] += seconds(k.WallNS)
			v["decide.items"] += float64(k.Items)
			v["decide.imbalance"] = max(v["decide.imbalance"], k.Imbalance)
		case k.Kernel == "color-paths":
			v["color_paths.wall_s"] += seconds(k.WallNS)
			v["color_paths.imbalance"] = max(v["color_paths.imbalance"], k.Imbalance)
		case k.Kernel == "mis-components":
			v["mis_components.wall_s"] += seconds(k.WallNS)
			v["mis_components.launches"] += float64(k.Launches)
		case strings.HasPrefix(k.Kernel, "engine[prune-"):
			v["flood.imbalance"] = max(v["flood.imbalance"], k.Imbalance)
		}
	}
	// Round-latency tail over every flood round of the run, not per phase.
	var rounds obs.Hist
	for _, ev := range events {
		if ev.Kind == obs.KindRound && strings.HasPrefix(ev.Phase, "prune-") {
			rounds.Record(ev.WallNS)
		}
	}
	v["flood.round_p99_ms"] = float64(rounds.Quantile(0.99)) / 1e6
	for _, m := range s.Mem {
		v["heap.peak_mb"] = max(v["heap.peak_mb"], mb(m.HeapAllocB))
	}
	return v
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
