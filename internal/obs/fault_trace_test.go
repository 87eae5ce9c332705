package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// faultTrace runs a faulty flood under a fresh Collector and returns
// its JSONL trace bytes and its events.
func faultTrace(t *testing.T, g *graph.Graph, radius int, f *dist.Faults) ([]byte, []Event) {
	t.Helper()
	var buf bytes.Buffer
	c := NewCollector()
	c.SetTrace(&buf)
	if _, _, err := dist.Flood(graph.NewIndexed(g), radius, dist.RunOpts{Observer: c, Faults: f}); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c.Events()
}

// TestFaultTraceByteIdenticalAcrossModes is the acceptance gate for
// deterministic fault injection: the same (graph, protocol, seed, plan)
// must yield traces whose deterministic records (DiffDeterministic)
// agree under GOMAXPROCS 1, 2, and 4, i.e. one, two, and four
// concurrently stepped node ranges.
func TestFaultTraceByteIdenticalAcrossModes(t *testing.T) {
	g := gen.RandomChordal(180, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 37)
	plans := map[string]*dist.Faults{
		"fault-free": nil,
		"drop":       {Plan: fault.Plan{Seed: 7, Drop: 0.2}},
		"mixed":      {Plan: fault.Plan{Seed: 7, Drop: 0.1, Dup: 0.2, MaxDelay: 3}},
	}
	for name, f := range plans {
		var ref []Event
		proctest.Sweep(func(procs int) {
			_, got := faultTrace(t, g, 3, f)
			if procs == 1 {
				if ref = got; len(DeterministicRecords(ref)) == 0 {
					t.Fatalf("%s: empty trace", name)
				}
				return
			}
			if err := DiffDeterministic(ref, got); err != nil {
				t.Errorf("%s: trace under GOMAXPROCS %d diverges from GOMAXPROCS 1: %v", name, procs, err)
			}
		})
	}
}

// TestFaultTraceSchema: fault rounds carry the v2 fault fields, and
// fault-free rounds omit them entirely (backward-readable: a v1 reader
// ignoring unknown keys sees a valid v1 round event).
func TestFaultTraceSchema(t *testing.T) {
	g := gen.KTree(120, 3, 41)
	f := &dist.Faults{Plan: fault.Plan{Seed: 3, Drop: 0.3, Dup: 0.3, MaxDelay: 2}}
	raw, _ := faultTrace(t, g, 3, f)

	sawFault := false
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad JSONL line %s: %v", line, err)
		}
		if m["v"].(float64) != SchemaVersion {
			t.Fatalf("v=%v, want %d", m["v"], SchemaVersion)
		}
		if _, ok := m["dropped"]; ok {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("no trace event carried the dropped field under drop=0.3")
	}

	clean, _ := faultTrace(t, g, 3, nil)
	for _, key := range []string{"dropped", "duplicated", "dead_letters", "stall", "crashed"} {
		if bytes.Contains(clean, []byte(key)) {
			t.Errorf("fault-free trace contains %q — fault fields must be omitted", key)
		}
	}
}

// TestCollectorFaultRoundMerge: the parked FaultRound stats land on the
// matching round event, including the crash list.
func TestCollectorFaultRoundMerge(t *testing.T) {
	c := NewCollector()
	c.RoundStart(0, 1)
	c.FaultRound(dist.FaultStats{Round: 0, Dropped: 2, Stall: 3, Crashed: []graph.ID{5}})
	c.RoundEnd(dist.RoundStats{Round: 0, Nodes: 4})
	c.RoundStart(1, 1)
	c.RoundEnd(dist.RoundStats{Round: 1, Nodes: 4})

	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	if evs[0].Dropped != 2 || evs[0].Stall != 3 || len(evs[0].Crashed) != 1 || evs[0].Crashed[0] != 5 {
		t.Errorf("fault stats not merged into round 0: %+v", evs[0])
	}
	if evs[1].Dropped != 0 || evs[1].Stall != 0 || evs[1].Crashed != nil {
		t.Errorf("fault stats leaked into round 1: %+v", evs[1])
	}
}
