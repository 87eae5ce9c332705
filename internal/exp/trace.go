package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/peel"
)

// E18RoundTrace runs the full distributed coloring pipeline on the
// paper's Figure-1 graph under an obs.Collector and tables the per-phase
// round structure: every pruning iteration's flood and the correction
// choreography, with rounds, traffic, and the inbox high-water mark.
// Only schedule-independent columns appear (wall timings go to the JSONL
// trace via `cmd/experiments -trace`), so the table is byte-reproducible.
func E18RoundTrace(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "round-resolved phase trace of distributed MVC (Figure-1 graph, ε=0.5)",
		Columns: []string{"phase", "engine runs", "rounds", "messages", "volume", "max inbox"},
	}
	c := obs.NewCollector()
	if _, err := core.ColorChordalDistributedObserved(figures.Fig1(), 0.5, c, nil); err != nil {
		return nil, fmt.Errorf("E18: %w", err)
	}
	for _, ph := range obs.Summarize(c.Events()).Phases {
		t.AddRow(ph.Phase, ph.Runs, ph.Rounds, ph.Messages, ph.Volume, ph.MaxInbox)
	}
	t.Notes = append(t.Notes,
		"Rounds count engine steps (the Init step included); messages/volume are per-phase totals.",
		"Wall and per-shard busy times are deliberately absent: they live in the JSONL trace (`-trace`), keeping this table deterministic.")
	return t, nil
}

// E19PeelTrace tables the peeling process layer by layer on a random
// chordal graph: how many pendant vs internal paths each iteration
// peels, how many nodes leave, and how fast the clique forest shrinks
// (the Lemma 6 geometric decay made visible).
func E19PeelTrace(quick bool) (*Table, error) {
	n := 2000
	if quick {
		n = 400
	}
	t := &Table{
		ID:      "E19",
		Title:   fmt.Sprintf("per-layer peel trace (random chordal, n=%d, threshold 9)", n),
		Columns: []string{"layer", "pendant paths", "internal paths", "nodes peeled", "forest cliques", "remaining"},
	}
	g := gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 11)
	c := obs.NewCollector()
	if _, err := peel.Run(g, peel.Options{InternalDiameter: 9, Trace: c.PeelTrace()}); err != nil {
		return nil, fmt.Errorf("E19: %w", err)
	}
	for _, ev := range c.Events() {
		t.AddRow(ev.Round, ev.PendantPaths, ev.InternalPaths, ev.NodesPeeled, ev.ForestCliques, ev.Remaining)
	}
	t.Notes = append(t.Notes,
		"Every column is a pure function of (graph, threshold): the peel is deterministic, so this table never drifts.")
	return t, nil
}

// Partitioner supplies a fresh dist.Partition for a graph snapshot —
// typically (*wire.Cluster).Partition, which re-sessions the shard-host
// fleet for each graph a workload visits. It lives here as a plain
// callback so this package never imports the transport. A nil
// Partitioner runs everything on the in-process engine.
type Partitioner func(ix *graph.Indexed) (*dist.Partition, error)

// of returns the partition of ix to run on: nil, the in-process engine,
// when the partitioner itself is nil.
func (p Partitioner) of(ix *graph.Indexed) (*dist.Partition, error) {
	if p == nil {
		return nil, nil
	}
	return p(ix)
}

// TraceRunCollector is the workload behind `cmd/experiments -trace`: it
// records, under a caller-configured Collector, (1) the full distributed
// coloring of the paper's Figure-1 graph and (2) flooding plus peeling
// on a 10^4-node random chordal graph (10^3 under -quick). The same run
// is what the profiling flags are expected to wrap, so traces and
// profiles describe one workload; `cmd/experiments -metrics` passes a
// Collector with mem snapshots enabled and renders the aggregate report
// afterwards. The message-passing stages run on partitions supplied by
// partFor. The workload visits two graphs, so a cluster-backed
// partitioner re-sessions its fleet between them; the peel stage is
// centralized either way. It finishes the collector (closing the last
// phase span), so the caller must not reuse it for further runs.
func TraceRunCollector(c *obs.Collector, quick bool, partFor Partitioner) error {
	// Figure-1 graph: the pruning floods label themselves prune-iNN and
	// the correction choreography labels itself "correction".
	c.SetPhase("fig1")
	fig := figures.Fig1()
	part, err := partFor.of(graph.NewIndexed(fig))
	if err != nil {
		return fmt.Errorf("trace fig1: %w", err)
	}
	if _, err := core.ColorChordalDistributedFaultyPart(fig, 0.5, c, c.PeelTrace(), nil, part); err != nil {
		return fmt.Errorf("trace fig1: %w", err)
	}

	n := 10000
	if quick {
		n = 1000
	}
	g := gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 11)
	ix := graph.NewIndexed(g)
	c.SetPhase(fmt.Sprintf("flood-n%d", n))
	if part, err = partFor.of(ix); err != nil {
		return fmt.Errorf("trace flood: %w", err)
	}
	if _, _, err := dist.Flood(ix, 4, dist.RunOpts{Observer: c, Part: part}); err != nil {
		return fmt.Errorf("trace flood: %w", err)
	}
	c.SetPhase(fmt.Sprintf("peel-n%d", n))
	if _, err := peel.Run(g, peel.Options{InternalDiameter: 9, Trace: c.PeelTrace(), Observer: c}); err != nil {
		return fmt.Errorf("trace peel: %w", err)
	}
	return c.Finish()
}
