// Command experiments regenerates every experiment table from DESIGN.md's
// per-experiment index (E1–E21); EXPERIMENTS.md records a full run.
//
// Usage:
//
//	experiments [-quick] [-only E7,E13]
//	experiments [-quick] -trace out.jsonl [-faults drop=0.2,dup=0.2,delay=2] [-fault-seed 7]
//	experiments [-quick] -trace out.jsonl [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-pprof 127.0.0.1:6060]
//
// With -trace the command runs the round-tracing workload (the full
// distributed coloring of the Figure-1 graph plus flooding and peeling
// on a 10^4-node random chordal graph — 10^3 with -quick) and streams a
// JSONL trace, one event per engine round. Adding -faults switches to
// the fault-injection workload: the spec is
// drop=P,dup=P,delay=D,crash=NODE@ROUND (any subset), the schedule is a
// pure function of -fault-seed, and the trace carries the schema-v2
// fault fields. The profiling flags work with or without -trace; they
// wrap whatever workload the invocation runs.
//
// -metrics runs the same tracing workload with the deep-metrics
// collector (obs schema v3): per-kernel worker spans, phase timeline
// spans, and per-phase heap/GC snapshots, printed as aggregate tables
// on stderr. It works with or without -trace (without, the records stay
// in memory and only the tables appear).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	// When re-executed as a shard host (-partitions spawns copies of this
	// binary), serve the shard and exit before touching flags.
	wire.MaybeShardHost()
	quick := flag.Bool("quick", false, "shrink parameter sweeps for a fast run")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E7); empty = all")
	trace := flag.String("trace", "", "write a JSONL round trace of the tracing workload to this file (skips the tables)")
	metrics := flag.Bool("metrics", false, "run the tracing workload with deep kernel metrics (worker spans, phase timelines, heap snapshots) and print aggregate tables to stderr (skips the experiment tables)")
	partitions := flag.Int("partitions", 0, "run the -trace workload's message-passing stages on this many shard-host child processes (0 = in-process LOCAL engine; deterministic trace fields are byte-identical)")
	faults := flag.String("faults", "", "fault spec drop=P,dup=P,delay=D,crash=NODE@ROUND for the -trace workload")
	faultSeed := flag.Uint64("fault-seed", 7, "seed of the deterministic fault schedule used by -faults")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for the duration of the run")
	flag.Parse()

	if err := run(*quick, *only, *trace, *metrics, *partitions, *faults, *faultSeed, *cpuprofile, *memprofile, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(quick bool, only, trace string, metrics bool, partitions int, faults string, faultSeed uint64, cpuprofile, memprofile, pprofAddr string) error {
	if cpuprofile != "" {
		stop, err := obs.StartCPUProfile(cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if pprofAddr != "" {
		shutdown, bound, err := obs.Serve(pprofAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", bound)
	}

	if faults != "" && trace == "" && !metrics {
		return fmt.Errorf("-faults applies to the tracing workload; pass -trace or -metrics too")
	}
	if partitions > 0 && trace == "" && !metrics {
		return fmt.Errorf("-partitions applies to the tracing workload; pass -trace or -metrics too")
	}
	if trace != "" || metrics {
		c := obs.NewCollector()
		var f *os.File
		if trace != "" {
			var err error
			if f, err = os.Create(trace); err != nil {
				return err
			}
			defer f.Close()
			c.SetTrace(f)
		}
		if metrics {
			c.SetMemStats(true)
		}
		// With -partitions the workload's message-passing stages run on
		// shard-host child processes (copies of this binary, see
		// MaybeShardHost); the partitioner re-sessions the fleet for each
		// graph the workload visits.
		var partFor exp.Partitioner
		if partitions > 0 {
			cluster, err := wire.StartCluster(partitions, wire.SelfSpawn())
			if err != nil {
				return err
			}
			defer func() {
				if err := cluster.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}()
			partFor = func(ix *graph.Indexed) (*dist.Partition, error) {
				return cluster.Partition(ix)
			}
		}
		if faults != "" {
			if err := exp.FaultTraceRunCollector(c, quick, faults, faultSeed, partFor); err != nil {
				return err
			}
		} else if err := exp.TraceRunCollector(c, quick, partFor); err != nil {
			return err
		}
		if metrics {
			if err := obs.WriteReport(os.Stderr, obs.Summarize(c.Events())); err != nil {
				return err
			}
		}
		if f != nil {
			return f.Close()
		}
		return nil
	}

	if only == "" {
		return exp.All(os.Stdout, quick)
	}
	known := make(map[string]bool, len(exp.Experiments))
	for _, e := range exp.Experiments {
		known[e.ID] = true
	}
	wanted := make(map[string]bool)
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if !known[id] {
			ids := make([]string, len(exp.Experiments))
			for i, e := range exp.Experiments {
				ids[i] = e.ID
			}
			return fmt.Errorf("-only: unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
		}
		wanted[id] = true
	}
	for _, e := range exp.Experiments {
		if !wanted[e.ID] {
			continue
		}
		tbl, err := e.Run(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tbl.Fprint(os.Stdout)
	}
	return nil
}
