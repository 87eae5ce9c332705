package exp

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTraceRunSchema runs the -trace workload in quick mode and checks
// the JSONL output line by line: every line is a JSON object of the
// stable schema, round events carry the engine fields, layer events the
// peel fields, kernel events the v3 per-worker spans, and within each
// (phase, run) the round indices are the contiguous sequence 0..R —
// one event per engine round, none missing.
func TestTraceRunSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("trace workload is slow")
	}
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.SetTrace(&buf)
	if err := TraceRunCollector(c, true, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short trace: %d lines", len(lines))
	}
	rounds, layers, kernels, phases := 0, 0, 0, 0
	lastRound := make(map[string]int) // "phase/run" -> last round index
	for i, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: invalid JSON: %v\n%s", i, err, line)
		}
		if ev.V != obs.SchemaVersion {
			t.Fatalf("line %d: schema version %d, want %d", i, ev.V, obs.SchemaVersion)
		}
		switch ev.Kind {
		case obs.KindRound:
			rounds++
			if ev.Nodes <= 0 {
				t.Errorf("line %d: round event with nodes=%d", i, ev.Nodes)
			}
			if ev.WallNS <= 0 {
				t.Errorf("line %d: round event with wall_ns=%d", i, ev.WallNS)
			}
			runKey := ev.Phase + "#" + strconv.Itoa(ev.Run)
			if prev, ok := lastRound[runKey]; ok {
				if ev.Round != prev+1 {
					t.Errorf("line %d: phase %s run %d jumps from round %d to %d", i, ev.Phase, ev.Run, prev, ev.Round)
				}
			} else if ev.Round != 0 {
				t.Errorf("line %d: phase %s run %d starts at round %d, want 0", i, ev.Phase, ev.Run, ev.Round)
			}
			lastRound[runKey] = ev.Round
		case obs.KindLayer:
			layers++
			if ev.NodesPeeled <= 0 {
				t.Errorf("line %d: layer event peeled %d nodes", i, ev.NodesPeeled)
			}
		case obs.KindKernel:
			kernels++
			if ev.Kernel == "" || ev.Shards < 1 {
				t.Errorf("line %d: kernel event %q with shards=%d", i, ev.Kernel, ev.Shards)
			}
			if len(ev.BusyNS) != ev.Shards || len(ev.Items) != ev.Shards {
				t.Errorf("line %d: kernel %q busy/items have %d/%d entries, want %d",
					i, ev.Kernel, len(ev.BusyNS), len(ev.Items), ev.Shards)
			}
		case obs.KindPhase:
			phases++
			if ev.WallNS <= 0 {
				t.Errorf("line %d: phase span with wall_ns=%d", i, ev.WallNS)
			}
		case obs.KindMem:
			// Opt-in; this Collector does not enable mem snapshots.
			t.Errorf("line %d: mem event without SetMemStats", i)
		default:
			t.Errorf("line %d: unknown event kind %q", i, ev.Kind)
		}
	}
	if rounds == 0 || layers == 0 || kernels == 0 || phases == 0 {
		t.Fatalf("trace has %d round, %d layer, %d kernel, %d phase events; want all four kinds",
			rounds, layers, kernels, phases)
	}
	// The workload's phases all appear.
	out := buf.String()
	for _, phase := range []string{"prune-i01", "correction", "flood-n1000", "peel-n1000"} {
		if !strings.Contains(out, `"phase":"`+phase+`"`) {
			t.Errorf("trace missing phase %q", phase)
		}
	}
}

// TestTraceTablesDeterministic regenerates E18 and E19 twice and
// requires byte-identical tables: the columns deliberately exclude every
// schedule- or hardware-dependent quantity.
func TestTraceTablesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trace tables are slow")
	}
	for _, run := range []func(bool) (*Table, error){E18RoundTrace, E19PeelTrace} {
		var a, b bytes.Buffer
		t1, err := run(true)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := run(true)
		if err != nil {
			t.Fatal(err)
		}
		t1.Fprint(&a)
		t2.Fprint(&b)
		if a.String() != b.String() {
			t.Errorf("%s not deterministic:\n%s\nvs\n%s", t1.ID, a.String(), b.String())
		}
	}
}
