package obs

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// PhaseAgg is one row of the per-phase aggregate table: the totals of
// the round events sharing one phase label (Runs counts the engine runs
// that contributed rounds, Rounds includes Init steps, MaxInbox is the
// high-water mark) plus the latency view the v3 records add — the
// wall-clock span of the phase (from "phase" timeline records when
// present, else the sum of round walls) and p50/p99 round latency from
// a streaming Hist over the phase's round events.
type PhaseAgg struct {
	Phase    string
	Runs     int
	Rounds   int
	Messages int
	Volume   int
	MaxInbox int
	WallNS   int64 // wall-clock span (phase record) or Σ round walls
	P50NS    int64
	P99NS    int64
}

// KernelAgg is one row of the worker-imbalance report: every launch of
// one sharded kernel (or of the engine's sharded round schedule, keyed
// "engine[phase]") folded together. Imbalance is the worst per-launch
// max/mean shard-busy ratio — 1.0 is a perfectly balanced launch; the
// mean ignores launches with fewer than two shards, which cannot be
// imbalanced.
type KernelAgg struct {
	Kernel    string
	Launches  int
	Shards    int // widest launch
	Items     int64
	BusyNS    int64 // Σ shard busy across launches
	WallNS    int64
	Imbalance float64 // worst launch's max/mean busy ratio
}

// MemAgg is one "mem" snapshot row, in trace order.
type MemAgg struct {
	Phase        string
	HeapAllocB   uint64
	HeapObjects  uint64
	TotalAllocB  uint64
	NumGC        uint32
	PauseTotalNS uint64
}

// Summary is the full aggregate view of one event stream; Summarize
// builds it and WriteReport renders it. cmd/tracestat's report command
// and the CLIs' -metrics flags share this code path, so the offline and
// in-process reports can never drift apart.
type Summary struct {
	SchemaV int // highest schema version seen
	Records int
	Phases  []PhaseAgg
	Kernels []KernelAgg
	Mem     []MemAgg
}

// launchImbalance returns max/mean over the positive busy spans of one
// launch (0 when fewer than two shards report busy time).
func launchImbalance(busy []int64) float64 {
	var max, sum int64
	n := 0
	for _, b := range busy {
		if b <= 0 {
			continue
		}
		n++
		sum += b
		if b > max {
			max = b
		}
	}
	if n < 2 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(n)
	return float64(max) / mean
}

// Summarize folds an event stream (a Collector's Events() or a decoded
// JSONL trace) into per-phase and per-kernel aggregates. Engine rounds
// that ran sharded contribute "engine[phase]" kernel rows, so the flood
// assembly and correction choreography get imbalance rows alongside the
// explicit compute kernels. Order is first appearance, so summaries of
// deterministic traces are deterministic.
func Summarize(events []Event) *Summary {
	s := &Summary{}
	phaseIdx := make(map[string]int)
	phaseLastRun := make(map[string]int)
	phaseHists := make(map[string]*Hist)
	phaseHasSpan := make(map[string]bool)
	kernelIdx := make(map[string]int)

	phaseRow := func(name string) *PhaseAgg {
		i, ok := phaseIdx[name]
		if !ok {
			i = len(s.Phases)
			phaseIdx[name] = i
			phaseLastRun[name] = -1
			phaseHists[name] = &Hist{}
			s.Phases = append(s.Phases, PhaseAgg{Phase: name})
		}
		return &s.Phases[i]
	}
	kernelRow := func(name string) *KernelAgg {
		i, ok := kernelIdx[name]
		if !ok {
			i = len(s.Kernels)
			kernelIdx[name] = i
			s.Kernels = append(s.Kernels, KernelAgg{Kernel: name})
		}
		return &s.Kernels[i]
	}

	for _, ev := range events {
		s.Records++
		if ev.V > s.SchemaV {
			s.SchemaV = ev.V
		}
		switch ev.Kind {
		case KindRound:
			p := phaseRow(ev.Phase)
			if phaseLastRun[ev.Phase] != ev.Run {
				phaseLastRun[ev.Phase] = ev.Run
				p.Runs++
			}
			p.Rounds++
			p.Messages += ev.Messages
			p.Volume += ev.Volume
			if ev.MaxInbox > p.MaxInbox {
				p.MaxInbox = ev.MaxInbox
			}
			if !phaseHasSpan[ev.Phase] {
				p.WallNS += ev.WallNS
			}
			phaseHists[ev.Phase].Record(ev.WallNS)
			if len(ev.BusyNS) > 1 {
				k := kernelRow("engine[" + ev.Phase + "]")
				k.Launches++
				if ev.Shards > k.Shards {
					k.Shards = ev.Shards
				}
				k.Items += int64(ev.Nodes)
				k.WallNS += ev.WallNS
				for _, b := range ev.BusyNS {
					k.BusyNS += b
				}
				if r := launchImbalance(ev.BusyNS); r > k.Imbalance {
					k.Imbalance = r
				}
			}
		case KindKernel:
			k := kernelRow(ev.Kernel)
			k.Launches++
			if ev.Shards > k.Shards {
				k.Shards = ev.Shards
			}
			for _, it := range ev.Items {
				k.Items += it
			}
			for _, b := range ev.BusyNS {
				k.BusyNS += b
			}
			k.WallNS += ev.WallNS
			if r := launchImbalance(ev.BusyNS); r > k.Imbalance {
				k.Imbalance = r
			}
			// Kernel launches happen inside a phase's wall-clock span;
			// make sure the phase appears even if it has no rounds.
			phaseRow(ev.Phase)
		case KindPhase:
			// The recorded span supersedes the Σ-round-walls fallback.
			p := phaseRow(ev.Phase)
			if !phaseHasSpan[ev.Phase] {
				phaseHasSpan[ev.Phase] = true
				p.WallNS = 0
			}
			p.WallNS += ev.WallNS
		case KindMem:
			s.Mem = append(s.Mem, MemAgg{
				Phase:        ev.Phase,
				HeapAllocB:   ev.HeapAllocB,
				HeapObjects:  ev.HeapObjects,
				TotalAllocB:  ev.TotalAllocB,
				NumGC:        ev.NumGC,
				PauseTotalNS: ev.PauseTotalNS,
			})
		}
	}
	for i := range s.Phases {
		h := phaseHists[s.Phases[i].Phase]
		s.Phases[i].P50NS = h.Quantile(0.5)
		s.Phases[i].P99NS = h.Quantile(0.99)
	}
	return s
}

func fmtNS(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

func fmtMiB(b uint64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}

// WriteReport renders the summary as the aligned text tables behind
// `tracestat report` and the CLIs' -metrics output.
func WriteReport(w io.Writer, s *Summary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "trace: %d records, schema v%d\n\n", s.Records, s.SchemaV)
	fmt.Fprintln(tw, "PHASES\tphase\truns\trounds\tmessages\tvolume\tmax inbox\twall\tp50 round\tp99 round")
	for _, p := range s.Phases {
		fmt.Fprintf(tw, "\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			p.Phase, p.Runs, p.Rounds, p.Messages, p.Volume, p.MaxInbox,
			fmtNS(p.WallNS), fmtNS(p.P50NS), fmtNS(p.P99NS))
	}
	fmt.Fprintln(tw, "\nKERNELS\tkernel\tlaunches\tshards\titems\tbusy\twall\timbalance (max/mean)")
	for _, k := range s.Kernels {
		imb := "-"
		if k.Imbalance > 0 {
			imb = fmt.Sprintf("%.2f", k.Imbalance)
		}
		fmt.Fprintf(tw, "\t%s\t%d\t%d\t%d\t%s\t%s\t%s\n",
			k.Kernel, k.Launches, k.Shards, k.Items, fmtNS(k.BusyNS), fmtNS(k.WallNS), imb)
	}
	if len(s.Mem) > 0 {
		fmt.Fprintln(tw, "\nMEM\tphase\theap MiB\theap objects\ttotal alloc MiB\tGCs\tGC pause")
		for _, m := range s.Mem {
			fmt.Fprintf(tw, "\t%s\t%s\t%d\t%s\t%d\t%s\n",
				m.Phase, fmtMiB(m.HeapAllocB), m.HeapObjects, fmtMiB(m.TotalAllocB), m.NumGC, fmtNS(int64(m.PauseTotalNS)))
		}
	}
	return tw.Flush()
}
