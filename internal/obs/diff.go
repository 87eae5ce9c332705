package obs

import (
	"fmt"
	"strings"
)

// deterministicFields lists the fields of a round/layer record that are
// pure functions of (graph, protocol, seed, fault plan), plus run/round
// identity. Timings, shard schedules, t_ns, and the wire_in_b/wire_out_b
// transport counters of partitioned runs describe the hardware or the
// deployment and are excluded, as are the kernel/phase/mem measurement
// records entirely, so a comparison answers "did the computation
// diverge", never "did the machine (or process layout) differ": a LOCAL
// trace and a partitioned trace of the same inputs, or two traces taken
// at different GOMAXPROCS, do not diverge.
var deterministicFields = []struct {
	name string
	get  func(ev Event) any
}{
	{"kind", func(ev Event) any { return ev.Kind }},
	{"phase", func(ev Event) any { return ev.Phase }},
	{"run", func(ev Event) any { return ev.Run }},
	{"round", func(ev Event) any { return ev.Round }},
	{"nodes", func(ev Event) any { return ev.Nodes }},
	{"messages", func(ev Event) any { return ev.Messages }},
	{"volume", func(ev Event) any { return ev.Volume }},
	{"done", func(ev Event) any { return ev.Done }},
	{"max_inbox", func(ev Event) any { return ev.MaxInbox }},
	{"dropped", func(ev Event) any { return ev.Dropped }},
	{"duplicated", func(ev Event) any { return ev.Duplicated }},
	{"dead_letters", func(ev Event) any { return ev.DeadLetters }},
	{"stall", func(ev Event) any { return ev.Stall }},
	{"crashed", func(ev Event) any { return fmt.Sprint(ev.Crashed) }},
	{"pendant_paths", func(ev Event) any { return ev.PendantPaths }},
	{"internal_paths", func(ev Event) any { return ev.InternalPaths }},
	{"nodes_peeled", func(ev Event) any { return ev.NodesPeeled }},
	{"forest_cliques", func(ev Event) any { return ev.ForestCliques }},
	{"remaining", func(ev Event) any { return ev.Remaining }},
}

// DeterministicRecords filters a trace down to the records
// DiffDeterministic compares: round and layer events.
func DeterministicRecords(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == KindRound || ev.Kind == KindLayer {
			out = append(out, ev)
		}
	}
	return out
}

// DiffDeterministic compares the deterministic records of two traces
// and returns nil when they agree. Otherwise its error locates the
// first diverging record (position, kind, phase, run, round) and names
// every differing field with both values, or, when one trace is a
// prefix of the other, reports both record counts and the first extra
// record.
func DiffDeterministic(a, b []Event) error {
	da, db := DeterministicRecords(a), DeterministicRecords(b)
	n := min(len(da), len(db))
	for i := 0; i < n; i++ {
		var desc strings.Builder
		for _, f := range deterministicFields {
			if va, vb := f.get(da[i]), f.get(db[i]); va != vb {
				fmt.Fprintf(&desc, "\n  %s: %v vs %v", f.name, va, vb)
			}
		}
		if desc.Len() > 0 {
			return fmt.Errorf("record %d (kind %q, phase %q, run %d, round %d) diverges:%s",
				i, da[i].Kind, da[i].Phase, da[i].Run, da[i].Round, desc.String())
		}
	}
	if len(da) == len(db) {
		return nil
	}
	longer, name := da, "A"
	if len(db) > len(da) {
		longer, name = db, "B"
	}
	ev := longer[n]
	return fmt.Errorf(
		"record counts differ: %d vs %d deterministic records; first extra record in %s is %d (kind %q, phase %q, run %d, round %d)",
		len(da), len(db), name, n, ev.Kind, ev.Phase, ev.Run, ev.Round)
}
