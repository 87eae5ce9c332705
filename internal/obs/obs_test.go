package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/peel"
	"repro/internal/proctest"
)

// pingProtocol floods a counter to neighbors for a fixed number of
// rounds, so every round sends deg(v) messages per node.
type pingProtocol struct {
	rounds int
	seen   int
}

func (p *pingProtocol) Init(ctx *dist.Context) {
	for _, u := range ctx.Neighbors() {
		ctx.Send(u, 1)
	}
}

func (p *pingProtocol) Round(ctx *dist.Context, inbox []dist.Message) {
	p.seen += len(inbox)
	if p.rounds--; p.rounds > 0 {
		for _, u := range ctx.Neighbors() {
			ctx.Send(u, 1)
		}
	}
}

func (p *pingProtocol) Done() bool  { return p.rounds <= 0 }
func (p *pingProtocol) Output() any { return p.seen }

func pathGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.ID(i))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.ID(i-1), graph.ID(i))
	}
	return g
}

// fakeClock advances one microsecond per reading, making every wall
// timing deterministic. The counter is atomic because shard hooks read
// the clock from worker goroutines.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	var ticks atomic.Int64
	return func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * time.Microsecond)
	}
}

func runPing(t *testing.T, c *Collector, n, rounds int) *dist.Result {
	t.Helper()
	_, res, err := dist.Run(graph.NewIndexed(pathGraph(n)), dist.NodeFunc(func(int) dist.Protocol {
		return &pingProtocol{rounds: rounds}
	}), dist.RunOpts{Observer: c}, 100)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return res
}

func TestCollectorOneEventPerRound(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	res := runPing(t, c, 8, 3)

	events := c.Events()
	// One event per step: the Init step plus res.Rounds communication
	// rounds.
	if want := res.Rounds + 1; len(events) != want {
		t.Fatalf("got %d events, want %d (rounds=%d + init)", len(events), want, res.Rounds)
	}
	totalMsgs, totalVol := 0, 0
	for i, ev := range events {
		if ev.V != SchemaVersion {
			t.Errorf("event %d: schema v=%d, want %d", i, ev.V, SchemaVersion)
		}
		if ev.Kind != KindRound {
			t.Errorf("event %d: kind %q, want %q", i, ev.Kind, KindRound)
		}
		if ev.Round != i {
			t.Errorf("event %d: round %d, want %d", i, ev.Round, i)
		}
		if ev.Nodes != 8 {
			t.Errorf("event %d: nodes %d, want 8", i, ev.Nodes)
		}
		if ev.WallNS <= 0 {
			t.Errorf("event %d: WallNS %d, want > 0 under the fake clock", i, ev.WallNS)
		}
		totalMsgs += ev.Messages
		totalVol += ev.Volume
	}
	if totalMsgs != res.Messages {
		t.Errorf("per-round messages sum to %d, engine result says %d", totalMsgs, res.Messages)
	}
	if totalVol != res.Volume {
		t.Errorf("per-round volume sums to %d, engine result says %d", totalVol, res.Volume)
	}
	last := events[len(events)-1]
	if last.Done != 8 {
		t.Errorf("final event Done=%d, want 8", last.Done)
	}
	// A path's interior nodes receive 2 messages per round.
	if events[1].MaxInbox != 2 {
		t.Errorf("round-1 MaxInbox=%d, want 2 on a path", events[1].MaxInbox)
	}
}

func TestCollectorJSONLTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetTrace(&buf)
	c.SetPhase("ping")
	res := runPing(t, c, 6, 2)
	if err := c.Err(); err != nil {
		t.Fatalf("trace write: %v", err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := res.Rounds + 1; len(lines) != want {
		t.Fatalf("trace has %d lines, want %d", len(lines), want)
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"v", "kind", "phase", "run", "round", "messages", "volume", "done", "max_inbox", "wall_ns"} {
			if _, ok := m[key]; !ok {
				t.Errorf("line %d: missing key %q", i, key)
			}
		}
		if m["v"].(float64) != SchemaVersion {
			t.Errorf("line %d: v=%v, want %d", i, m["v"], SchemaVersion)
		}
		if m["phase"] != "ping" {
			t.Errorf("line %d: phase=%v, want ping", i, m["phase"])
		}
	}
}

func TestCollectorPhasesAndRuns(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetPhase("a")
	runPing(t, c, 5, 2)
	runPing(t, c, 5, 2)
	c.SetPhase("b")
	res := runPing(t, c, 5, 3)

	phases := Summarize(c.Events()).Phases
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].Phase != "a" || phases[1].Phase != "b" {
		t.Fatalf("phase order %q,%q, want a,b", phases[0].Phase, phases[1].Phase)
	}
	if phases[0].Runs != 2 || phases[1].Runs != 1 {
		t.Errorf("runs per phase = %d,%d, want 2,1", phases[0].Runs, phases[1].Runs)
	}
	if want := res.Rounds + 1; phases[1].Rounds != want {
		t.Errorf("phase b rounds=%d, want %d", phases[1].Rounds, want)
	}
	if phases[0].WallNS <= 0 {
		t.Errorf("phase a WallNS=%d, want > 0", phases[0].WallNS)
	}
}

func TestCollectorShardBusyTimes(t *testing.T) {
	c := NewCollector()
	c.SetClock(fakeClock())
	ix := graph.NewIndexed(pathGraph(64))
	ping := dist.NodeFunc(func(int) dist.Protocol { return &pingProtocol{rounds: 2} })
	proctest.With(1, func() {
		if _, _, err := dist.Run(ix, ping, dist.RunOpts{Observer: c}, 100); err != nil {
			t.Fatalf("engine: %v", err)
		}
	})
	for i, ev := range c.Events() {
		if ev.Shards != 1 {
			t.Errorf("event %d: shards=%d, want 1 under GOMAXPROCS 1", i, ev.Shards)
		}
		if len(ev.BusyNS) != 1 || ev.BusyNS[0] <= 0 {
			t.Errorf("event %d: BusyNS=%v, want one positive entry", i, ev.BusyNS)
		}
	}
}

func TestPeelTraceLayerEvents(t *testing.T) {
	g := gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 7)
	c := NewCollector()
	c.SetClock(fakeClock())
	c.SetPhase("peel")
	res, err := peel.Run(g, peel.Options{InternalDiameter: 9, Trace: c.PeelTrace()})
	if err != nil {
		t.Fatalf("peel: %v", err)
	}
	events := c.Events()
	if len(events) != len(res.Layers) {
		t.Fatalf("got %d layer events, want %d", len(events), len(res.Layers))
	}
	peeled := 0
	for i, ev := range events {
		if ev.Kind != KindLayer {
			t.Errorf("event %d: kind %q, want %q", i, ev.Kind, KindLayer)
		}
		if ev.Round != res.Layers[i].Index {
			t.Errorf("event %d: iteration %d, want %d", i, ev.Round, res.Layers[i].Index)
		}
		layerNodes := 0
		for _, rec := range res.Layers[i].Paths {
			layerNodes += len(rec.Nodes)
		}
		if ev.NodesPeeled != layerNodes {
			t.Errorf("event %d: peeled %d, want %d", i, ev.NodesPeeled, layerNodes)
		}
		if got := ev.PendantPaths + ev.InternalPaths; got != len(res.Layers[i].Paths) {
			t.Errorf("event %d: %d paths, want %d", i, got, len(res.Layers[i].Paths))
		}
		peeled += ev.NodesPeeled
		if ev.Remaining != g.NumNodes()-peeled {
			t.Errorf("event %d: remaining %d, want %d", i, ev.Remaining, g.NumNodes()-peeled)
		}
	}
}

func TestServePprofAndVars(t *testing.T) {
	shutdown, addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Errorf("GET /debug/pprof/: empty body")
	}
}

func TestProfileFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatalf("start cpu profile: %v", err)
	}
	runPing(t, NewCollector(), 32, 3)
	if err := stop(); err != nil {
		t.Fatalf("stop cpu profile: %v", err)
	}
	heap := dir + "/heap.pprof"
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatalf("heap profile: %v", err)
	}
	for _, p := range []string{cpu, heap} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
