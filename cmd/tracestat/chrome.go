package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// chrome://tracing and Perfetto load). Timestamps and durations are in
// microseconds; "X" is a complete event, "C" a counter sample.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	tidPhases  = 0
	tidRounds  = 1
	tidKernels = 2
	// Per-worker shard lanes start here: tidShard0+s is worker s.
	tidShard0 = 10
)

func us(ns int64) float64 { return float64(ns) / 1e3 }

// writeChrome exports a trace as Chrome trace-event JSON. Phase spans,
// engine rounds, and kernel launches each get a lane, and every
// kernel's per-worker shard spans fan out onto per-worker lanes — the
// visual form of the imbalance tables. Records without timing offsets
// (v1/v2 traces) contribute nothing; mem snapshots become
// counter samples.
func writeChrome(w io.Writer, events []obs.Event) error {
	var out []chromeEvent
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindPhase:
			if ev.WallNS <= 0 {
				continue
			}
			out = append(out, chromeEvent{
				Name: ev.Phase, Cat: "phase", Ph: "X",
				TS: us(ev.TNS), Dur: us(ev.WallNS), PID: 1, TID: tidPhases,
				Args: map[string]any{
					"runs": ev.Runs, "rounds": ev.Rounds,
					"messages": ev.Messages, "volume": ev.Volume,
					"p50_ns": ev.P50NS, "p99_ns": ev.P99NS,
				},
			})
		case obs.KindRound:
			if ev.WallNS <= 0 {
				continue
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s r%d", ev.Phase, ev.Round), Cat: "round", Ph: "X",
				TS: us(ev.TNS), Dur: us(ev.WallNS), PID: 1, TID: tidRounds,
				Args: map[string]any{
					"run": ev.Run, "messages": ev.Messages,
					"volume": ev.Volume, "done": ev.Done,
				},
			})
		case obs.KindKernel:
			if ev.WallNS <= 0 {
				continue
			}
			out = append(out, chromeEvent{
				Name: ev.Kernel, Cat: "kernel", Ph: "X",
				TS: us(ev.TNS), Dur: us(ev.WallNS), PID: 1, TID: tidKernels,
				Args: map[string]any{"shards": ev.Shards, "items": ev.Nodes},
			})
			for s, busy := range ev.BusyNS {
				if busy <= 0 || s >= len(ev.ShardStartNS) || ev.ShardStartNS[s] <= 0 {
					continue
				}
				var items int64
				if s < len(ev.Items) {
					items = ev.Items[s]
				}
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("%s/s%d", ev.Kernel, s), Cat: "shard", Ph: "X",
					TS: us(ev.ShardStartNS[s]), Dur: us(busy), PID: 1, TID: tidShard0 + s,
					Args: map[string]any{"items": items},
				})
			}
		case obs.KindMem:
			out = append(out, chromeEvent{
				Name: "heap", Cat: "mem", Ph: "C",
				TS: us(ev.TNS), PID: 1, TID: tidPhases,
				Args: map[string]any{
					"heap_alloc_b": ev.HeapAllocB, "heap_objects": ev.HeapObjects,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     out,
	})
}
