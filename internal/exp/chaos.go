package exp

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// classifyFaultErr maps a pipeline error under fault injection to a
// stable outcome label, so the E20 table stays byte-reproducible while
// still distinguishing the detection paths.
func classifyFaultErr(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "crashed"):
		return "crash reported"
	case strings.Contains(msg, "Lemma 12"):
		return "divergence detected"
	case strings.Contains(msg, "peeled nothing"):
		return "corruption detected"
	case strings.Contains(msg, "did not terminate") || strings.Contains(msg, "never finalized"):
		return "stall detected"
	default:
		return "error"
	}
}

// E20FaultMatrix runs the full distributed coloring pipeline on the
// paper's Figure-1 graph under one fault scenario per row and tables
// what the contract promises: duplication and per-edge delay are
// absorbed (the coloring and round count are identical to the fault-free
// run, with only the fault counters betraying that anything happened),
// while message loss and crashes — which the plain flooding protocol
// cannot survive — surface as clean diagnosable errors, never as a
// silently wrong coloring.
func E20FaultMatrix(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E20",
		Title:   "fault-injection matrix for distributed MVC (Figure-1 graph, ε=0.5)",
		Columns: []string{"scenario", "outcome", "colors", "rounds", "dropped", "duplicated", "stall"},
	}
	g := figures.Fig1()
	want, err := core.ColorChordalDistributed(g, 0.5)
	if err != nil {
		return nil, fmt.Errorf("E20 baseline: %w", err)
	}
	scenarios := []struct {
		name, spec string
		seed       uint64
	}{
		{"fault-free", "", 0},
		{"dup p=0.30", "dup=0.3", 21},
		{"delay ≤2", "delay=2", 21},
		{"dup+delay", "dup=0.3,delay=2", 21},
		{"drop p=0.30", "drop=0.3", 2},
		{"crash 7@2", "crash=7@2", 0},
	}
	for _, sc := range scenarios {
		f, err := dist.ParseFaults(sc.spec, sc.seed)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", sc.name, err)
		}
		c := obs.NewCollector()
		got, err := core.ColorChordalDistributedFaultyPart(g, 0.5, c, nil, f, nil)
		var dropped, duplicated, stall int
		for _, ev := range c.Events() {
			dropped += ev.Dropped
			duplicated += ev.Duplicated
			stall += ev.Stall
		}
		if err != nil {
			t.AddRow(sc.name, classifyFaultErr(err), "—", "—", dropped, duplicated, stall)
			continue
		}
		outcome := "identical"
		if got.ColorsUsed != want.ColorsUsed || got.Rounds != want.Rounds {
			outcome = "DIVERGED (undetected)"
		} else {
			for v, c := range want.Colors {
				if got.Colors[v] != c {
					outcome = "DIVERGED (undetected)"
					break
				}
			}
		}
		t.AddRow(sc.name, outcome, got.ColorsUsed, got.Rounds, dropped, duplicated, stall)
	}
	t.Notes = append(t.Notes,
		"The fault schedule is a pure function of (seed, round, sender, queue position), so every cell is reproducible.",
		"\"stall\" is the summed per-round maximum link delay: the round-synchronous model absorbs delay, it never reorders.",
		"Drops corrupt the pruning floods and are caught by the Lemma-12 cross-check or the prune's progress guard; crashes are reported by the engine itself.")
	return t, nil
}

// E21RetransFlood measures the retransmitting flood under message loss:
// FloodRetrans must reconstruct exactly the knowledge the plain
// lossless flood gathers, paying only extra rounds and retransmission
// traffic. Extra rounds are counted against the protocol's own
// fault-free run (the p=0 row).
func E21RetransFlood(quick bool) (*Table, error) {
	n := 800
	if quick {
		n = 200
	}
	const radius, budget = 3, 200
	t := &Table{
		ID:      "E21",
		Title:   fmt.Sprintf("retransmitting flood under message loss (random chordal, n=%d, radius %d)", n, radius),
		Columns: []string{"drop p", "rounds", "extra rounds", "messages", "dropped", "knowledge"},
	}
	g := gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 29)
	ix := graph.NewIndexed(g)
	want, _, err := dist.Flood(ix, radius, dist.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("E21 baseline: %w", err)
	}
	members := make([]int32, 0, ix.NumNodes())
	cleanRounds := 0
	for i, p := range []float64{0, 0.1, 0.3} {
		var f *dist.Faults
		if p > 0 {
			if f, err = dist.ParseFaults(fmt.Sprintf("drop=%g", p), 5); err != nil {
				return nil, fmt.Errorf("E21 drop=%.1f: %w", p, err)
			}
		}
		know, res, err := dist.FloodRetrans(ix, radius, budget, dist.RunOpts{Faults: f})
		if err != nil {
			return nil, fmt.Errorf("E21 drop=%.1f: %w", p, err)
		}
		if i == 0 {
			cleanRounds = res.Rounds
		}
		match := "exact"
		for i, w := range want {
			if !sameBall(w, know[i], members) {
				match = "DIVERGED"
				break
			}
		}
		t.AddRow(fmt.Sprintf("%.1f", p), res.Rounds, res.Rounds-cleanRounds, res.Messages, res.Dropped, match)
	}
	t.Notes = append(t.Notes,
		"\"knowledge\" compares every node's ball (membership) against the lossless plain flood: the protocol trades rounds for exactness.",
		"Extra rounds count from the protocol's own fault-free run; even that pays an ack round trip over the plain flood's radius+1 schedule.")
	return t, nil
}

// sameBall reports whether k holds exactly w's members; scratch is
// reused to list them.
func sameBall(w, k *dist.Knowledge, scratch []int32) bool {
	if k.Size() != w.Size() {
		return false
	}
	for _, idx := range w.AppendMembers(scratch) {
		if !k.KnownIdx(idx) {
			return false
		}
	}
	return true
}

// FaultTraceRunCollector is the workload behind `cmd/experiments -trace
// -faults`: it records, under a caller-configured Collector (see
// TraceRunCollector), (1) the full distributed coloring of the Figure-1
// graph under the absorbable projection of the schedule — drop and
// crash stripped, because the plain floods have no retransmission and
// E20 already tables those error paths — and (2) a retransmitting flood
// on a random chordal graph under the full schedule, message loss
// included, exercising the recovery machinery end to end. Both
// schedules are parsed from (spec, seed), the projection with drop and
// crash stripped from spec, so a projection that perturbs nothing runs
// fault-free. The message-passing stages run on partitions supplied by
// partFor (nil = the in-process engine). It finishes the collector; the
// caller must not reuse it.
func FaultTraceRunCollector(c *obs.Collector, quick bool, spec string, seed uint64, partFor Partitioner) error {
	f, err := dist.ParseFaults(spec, seed)
	if err != nil {
		return err
	}
	absorbable, err := dist.ParseFaults(stripDropCrash(spec), seed)
	if err != nil && !errors.Is(err, dist.ErrFaultsInactive) {
		return fmt.Errorf("fault trace: %w", err)
	}

	c.SetPhase("fig1-faulty")
	fig := figures.Fig1()
	part, err := partFor.of(graph.NewIndexed(fig))
	if err != nil {
		return fmt.Errorf("fault trace fig1: %w", err)
	}
	if _, err := core.ColorChordalDistributedFaultyPart(fig, 0.5, c, nil, absorbable, part); err != nil {
		return fmt.Errorf("fault trace fig1: %w", err)
	}

	n := 1000
	if quick {
		n = 300
	}
	g := gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 11)
	ix := graph.NewIndexed(g)
	c.SetPhase(fmt.Sprintf("retrans-n%d", n))
	if part, err = partFor.of(ix); err != nil {
		return fmt.Errorf("fault trace retrans: %w", err)
	}
	if _, _, err := dist.FloodRetrans(ix, 3, 200, dist.RunOpts{Observer: c, Faults: f, Part: part}); err != nil {
		return fmt.Errorf("fault trace retrans: %w", err)
	}
	return c.Finish()
}

// stripDropCrash removes the drop= and crash= components of a fault
// spec, leaving its absorbable projection (dup/delay).
func stripDropCrash(spec string) string {
	var keep []string
	for _, comp := range strings.Split(spec, ",") {
		t := strings.TrimSpace(comp)
		if strings.HasPrefix(t, "drop=") || strings.HasPrefix(t, "crash=") {
			continue
		}
		if t != "" {
			keep = append(keep, t)
		}
	}
	return strings.Join(keep, ",")
}
