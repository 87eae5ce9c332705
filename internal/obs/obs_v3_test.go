package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/proctest"
)

func TestKernelSpanEvents(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetPhase("stage")
	c.KernelStart("decide", 2)
	c.KernelShardStart(0)
	c.KernelShardEnd(0, 10)
	c.KernelShardStart(1)
	c.KernelShardEnd(1, 7)
	c.KernelEnd()

	events := c.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1 kernel event", len(events))
	}
	ev := events[0]
	if ev.Kind != KindKernel || ev.Kernel != "decide" {
		t.Fatalf("event = kind %q kernel %q, want kernel/decide", ev.Kind, ev.Kernel)
	}
	if ev.V != SchemaVersion || ev.Phase != "stage" {
		t.Errorf("v=%d phase=%q, want v=%d phase=stage", ev.V, ev.Phase, SchemaVersion)
	}
	if ev.Shards != 2 {
		t.Errorf("shards=%d, want 2", ev.Shards)
	}
	if len(ev.BusyNS) != 2 || ev.BusyNS[0] <= 0 || ev.BusyNS[1] <= 0 {
		t.Errorf("BusyNS=%v, want two positive entries", ev.BusyNS)
	}
	if len(ev.Items) != 2 || ev.Items[0] != 10 || ev.Items[1] != 7 {
		t.Errorf("Items=%v, want [10 7]", ev.Items)
	}
	if len(ev.ShardStartNS) != 2 {
		t.Errorf("ShardStartNS=%v, want two entries", ev.ShardStartNS)
	}
	if ev.Nodes != 17 {
		t.Errorf("Nodes=%d, want 17 (sum of items)", ev.Nodes)
	}
	if ev.WallNS <= 0 || ev.TNS <= 0 {
		t.Errorf("WallNS=%d TNS=%d, want both > 0 under the fake clock", ev.WallNS, ev.TNS)
	}
}

func TestKernelSpanUnvisitedShard(t *testing.T) {
	// A launch can be declared with more shard slots than workers that
	// actually run (n < workers after clamping never happens in core, but
	// the collector must not invent timings for untouched slots).
	c := NewCollector()
	c.SetClock(fakeClock())
	c.KernelStart("peel-measure", 3)
	c.KernelShardStart(1)
	c.KernelShardEnd(1, 4)
	c.KernelEnd()
	ev := c.Events()[0]
	if ev.BusyNS[0] != 0 || ev.BusyNS[2] != 0 || ev.BusyNS[1] <= 0 {
		t.Errorf("BusyNS=%v, want only shard 1 populated", ev.BusyNS)
	}
	if ev.ShardStartNS[0] != 0 || ev.ShardStartNS[2] != 0 {
		t.Errorf("ShardStartNS=%v, want zero for unvisited shards", ev.ShardStartNS)
	}
}

func TestPhaseBoundaryEvents(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetPhase("a")
	resA := runPing(t, c, 6, 2)
	runPing(t, c, 6, 2)
	c.SetPhase("b")
	runPing(t, c, 6, 3)
	if err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	var phases []Event
	for _, ev := range c.Events() {
		if ev.Kind == KindPhase {
			phases = append(phases, ev)
		}
	}
	if len(phases) != 2 {
		t.Fatalf("got %d phase events, want 2", len(phases))
	}
	a, b := phases[0], phases[1]
	if a.Phase != "a" || b.Phase != "b" {
		t.Fatalf("phase order %q,%q, want a,b", a.Phase, b.Phase)
	}
	if a.Runs != 2 || b.Runs != 1 {
		t.Errorf("runs = %d,%d, want 2,1", a.Runs, b.Runs)
	}
	if want := 2 * (resA.Rounds + 1); a.Rounds != want {
		t.Errorf("phase a rounds=%d, want %d", a.Rounds, want)
	}
	if a.Messages != 2*resA.Messages || a.Volume != 2*resA.Volume {
		t.Errorf("phase a messages/volume = %d/%d, want %d/%d",
			a.Messages, a.Volume, 2*resA.Messages, 2*resA.Volume)
	}
	for _, ev := range []Event{a, b} {
		if ev.WallNS <= 0 {
			t.Errorf("phase %q WallNS=%d, want > 0", ev.Phase, ev.WallNS)
		}
		if ev.P50NS <= 0 || ev.P99NS < ev.P50NS {
			t.Errorf("phase %q p50=%d p99=%d, want 0 < p50 <= p99", ev.Phase, ev.P50NS, ev.P99NS)
		}
	}
	// Phase a closes when SetPhase("b") is called: its span event must
	// precede every round of phase b in the stream.
	for i, ev := range c.Events() {
		if ev.Kind == KindPhase && ev.Phase == "a" {
			for _, later := range c.Events()[:i] {
				if later.Phase == "b" {
					t.Errorf("phase-a span emitted after phase-b rounds")
				}
			}
		}
	}
}

func TestFinishIdempotentAndEmptyPhaseSilent(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetPhase("empty")
	c.SetPhase("also-empty")
	if err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("second finish: %v", err)
	}
	if n := len(c.Events()); n != 0 {
		t.Fatalf("got %d events from empty phases, want 0", n)
	}
}

func TestMemStatsEvents(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetMemStats(true)
	c.SetPhase("work")
	runPing(t, c, 6, 2)
	if err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	var mems []Event
	for _, ev := range c.Events() {
		if ev.Kind == KindMem {
			mems = append(mems, ev)
		}
	}
	if len(mems) != 1 {
		t.Fatalf("got %d mem events, want 1", len(mems))
	}
	m := mems[0]
	if m.Phase != "work" {
		t.Errorf("mem phase=%q, want work", m.Phase)
	}
	if m.HeapAllocB == 0 || m.HeapObjects == 0 || m.TotalAllocB == 0 {
		t.Errorf("mem snapshot zeroed: heap=%d objects=%d total=%d",
			m.HeapAllocB, m.HeapObjects, m.TotalAllocB)
	}
}

func TestV3TraceOmitsEmptyFields(t *testing.T) {
	// v2 readers must keep parsing v3 traces: round records gain only
	// t_ns, and kernel/phase/mem fields never appear on them.
	var buf bytes.Buffer
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetTrace(&buf)
	c.SetPhase("ping")
	runPing(t, c, 6, 2)
	if err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if m["kind"] != "round" && m["kind"] != "phase" {
			continue
		}
		for _, key := range []string{"kernel", "items", "shard_start_ns", "heap_alloc_b", "num_gc"} {
			if _, ok := m[key]; ok && m["kind"] == "round" {
				t.Errorf("line %d: round record carries v3 field %q", i, key)
			}
		}
	}
}

// TestPipelineKernelCoverage asserts the acceptance-criteria list: every
// sharded kernel in the coloring and MIS pipelines emits per-worker
// spans through one attached Collector. GOMAXPROCS is forced to 3 so
// the parallel shard-hook paths run even on single-CPU machines (one
// shard emits the same spans on the calling goroutine).
func TestPipelineKernelCoverage(t *testing.T) {
	g := gen.RandomChordal(300, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 11)
	c := NewCollector()
	c.SetClock(fakeClock())
	proctest.With(3, func() {
		c.SetPhase("color")
		if _, err := core.ColorChordalDistributedObserved(g, 0.5, c, nil); err != nil {
			t.Fatalf("color: %v", err)
		}
		c.SetPhase("mis")
		if _, err := core.MISChordalWithOptions(g, 0.5, core.ChordalMISOptions{Observer: c}); err != nil {
			t.Fatalf("mis: %v", err)
		}
	})
	if err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	seen := map[string]int{}
	for _, ev := range c.Events() {
		if ev.Kind != KindKernel {
			continue
		}
		seen[ev.Kernel]++
		if ev.Shards < 1 || len(ev.BusyNS) != ev.Shards || len(ev.Items) != ev.Shards {
			t.Errorf("kernel %q: shards=%d busy=%v items=%v", ev.Kernel, ev.Shards, ev.BusyNS, ev.Items)
		}
	}
	for _, kernel := range []string{"decide", "peel-measure", "color-paths", "correction-setup", "mis-components"} {
		if seen[kernel] == 0 {
			t.Errorf("kernel %q emitted no spans (saw %v)", kernel, seen)
		}
	}
}

// TestObservedPipelineDeterminism re-checks the repo's core invariant
// for the new hooks: attaching a metrics collector never changes the
// computed coloring.
func TestObservedPipelineDeterminism(t *testing.T) {
	g := gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 3)
	plain, err := core.ColorChordal(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	c.SetClock(fakeClock())
	observed, err := core.ColorChordalObserved(g, 0.5, c)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ColorsUsed != observed.ColorsUsed || len(plain.Colors) != len(observed.Colors) {
		t.Fatalf("observed run diverged: %d/%d colors vs %d/%d",
			observed.ColorsUsed, len(observed.Colors), plain.ColorsUsed, len(plain.Colors))
	}
	for v, col := range plain.Colors {
		if observed.Colors[v] != col {
			t.Fatalf("node %d: observed color %d, plain %d", v, observed.Colors[v], col)
		}
	}
}
