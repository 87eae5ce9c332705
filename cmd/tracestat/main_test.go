package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// fakeClock advances one microsecond per reading; atomic because shard
// hooks read the clock from worker goroutines.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	var ticks atomic.Int64
	return func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * time.Microsecond)
	}
}

// pipelineTrace runs the observed coloring+MIS pipeline on one seed and
// returns the JSONL trace bytes.
func pipelineTrace(t *testing.T, seed int64, metrics bool) []byte {
	t.Helper()
	g := gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.SetClock(fakeClock())
	c.SetTrace(&buf)
	if metrics {
		c.SetMemStats(true)
	}
	c.SetPhase("color")
	if _, err := core.ColorChordalDistributedObserved(g, 0.5, c, c.PeelTrace()); err != nil {
		t.Fatalf("color: %v", err)
	}
	c.SetPhase("mis")
	if _, err := core.MISChordalWithOptions(g, 0.5, core.ChordalMISOptions{Observer: c}); err != nil {
		t.Fatalf("mis: %v", err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return buf.Bytes()
}

func TestCheckAcceptsPipelineTrace(t *testing.T) {
	trace := pipelineTrace(t, 1, true)
	if problems := checkTrace(bytes.NewReader(trace)); len(problems) != 0 {
		t.Fatalf("pipeline trace has problems:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckFlagsProblems(t *testing.T) {
	cases := []struct {
		name  string
		trace string
		want  string
	}{
		{"bad json", `{"v":3,"kind":"round"}` + "\n{not json}\n", "not valid JSON"},
		{"unknown kind", `{"v":3,"kind":"mystery","run":0,"round":0}` + "\n", `unknown kind "mystery"`},
		{"mixed schema", `{"v":3,"kind":"round","run":0,"round":0}` + "\n" +
			`{"v":2,"kind":"round","run":0,"round":1}` + "\n", "trace opened with v=3"},
		{"schema out of range", `{"v":99,"kind":"round","run":0,"round":0}` + "\n", "outside [1,"},
		{"non-monotone rounds", `{"v":3,"kind":"round","phase":"p","run":0,"round":1}` + "\n" +
			`{"v":3,"kind":"round","phase":"p","run":0,"round":1}` + "\n", "not monotone"},
		{"kernel shape", `{"v":3,"kind":"kernel","kernel":"decide","shards":2,"busy_ns":[1],"items":[1]}` + "\n", "busy/items have"},
		{"empty", "", "trace is empty"},
	}
	for _, tc := range cases {
		problems := checkTrace(strings.NewReader(tc.trace))
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v, want one containing %q", tc.name, problems, tc.want)
		}
	}
	// Distinct (phase, run) keys each get their own monotone sequence.
	ok := `{"v":3,"kind":"round","phase":"p","run":0,"round":0}
{"v":3,"kind":"round","phase":"p","run":0,"round":1}
{"v":3,"kind":"round","phase":"p","run":1,"round":0}
{"v":3,"kind":"round","phase":"q","run":0,"round":0}
`
	if problems := checkTrace(strings.NewReader(ok)); len(problems) != 0 {
		t.Errorf("per-run round restart misflagged: %v", problems)
	}
}

func TestDiffSameSeedClean(t *testing.T) {
	// Same seed, one run with metrics on: the measurement records differ
	// wildly but the deterministic records must not.
	a, err := readEvents(bytes.NewReader(pipelineTrace(t, 7, false)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readEvents(bytes.NewReader(pipelineTrace(t, 7, true)))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.DiffDeterministic(a, b); err != nil {
		t.Fatalf("same-seed traces diverged:\n%v", err)
	}
}

func TestDiffDifferentSeedsLocatesDivergence(t *testing.T) {
	a, err := readEvents(bytes.NewReader(pipelineTrace(t, 7, false)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readEvents(bytes.NewReader(pipelineTrace(t, 8, false)))
	if err != nil {
		t.Fatal(err)
	}
	err = obs.DiffDeterministic(a, b)
	if err == nil {
		t.Fatal("different seeds did not diverge")
	}
	// The description must carry the acceptance-criteria context:
	// which record, its phase/round identity, and the differing field.
	for _, want := range []string{"phase", "round", "vs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("divergence description missing %q:\n%v", want, err)
		}
	}
}

func TestDiffFieldAndLengthDivergence(t *testing.T) {
	base := []obs.Event{
		{V: 3, Kind: obs.KindRound, Phase: "p", Run: 0, Round: 0, Messages: 10},
		{V: 3, Kind: obs.KindRound, Phase: "p", Run: 0, Round: 1, Messages: 5},
	}
	mut := []obs.Event{
		{V: 3, Kind: obs.KindRound, Phase: "p", Run: 0, Round: 0, Messages: 10},
		{V: 3, Kind: obs.KindRound, Phase: "p", Run: 0, Round: 1, Messages: 6},
	}
	if err := obs.DiffDeterministic(base, mut); err == nil || !strings.Contains(err.Error(), "messages: 5 vs 6") {
		t.Errorf("field divergence: %v", err)
	}
	if err := obs.DiffDeterministic(base, base[:1]); err == nil || !strings.Contains(err.Error(), "record counts differ") {
		t.Errorf("length divergence: %v", err)
	}
	// Timings and v3 measurement records never count as divergence.
	noisy := []obs.Event{
		{V: 3, Kind: obs.KindKernel, Phase: "p", Kernel: "decide", Shards: 1, BusyNS: []int64{9}, Items: []int64{4}},
		{V: 3, Kind: obs.KindRound, Phase: "p", Run: 0, Round: 0, Messages: 10, WallNS: 999, TNS: 5, Shards: 4, BusyNS: []int64{1, 2, 3, 4}},
		{V: 3, Kind: obs.KindRound, Phase: "p", Run: 0, Round: 1, Messages: 5, WallNS: 111},
		{V: 3, Kind: obs.KindPhase, Phase: "p", Runs: 1, Rounds: 2, WallNS: 1234},
	}
	if err := obs.DiffDeterministic(base, noisy); err != nil {
		t.Errorf("timing noise flagged as divergence:\n%v", err)
	}
}

func TestReportOnPipelineTrace(t *testing.T) {
	events, err := readEvents(bytes.NewReader(pipelineTrace(t, 3, true)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteReport(&buf, obs.Summarize(events)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PHASES", "KERNELS", "MEM", "color", "mis", "peel-measure", "mis-components", "schema v3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestChromeExport(t *testing.T) {
	events, err := readEvents(bytes.NewReader(pipelineTrace(t, 3, true)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat]++
		if ev.Ph == "X" && ev.Dur <= 0 {
			t.Errorf("complete event %q has dur=%v", ev.Name, ev.Dur)
		}
	}
	for _, cat := range []string{"phase", "round", "kernel", "shard", "mem"} {
		if cats[cat] == 0 {
			t.Errorf("no %q events in export (cats=%v)", cat, cats)
		}
	}
}

func TestReadEventsReportsLine(t *testing.T) {
	_, err := readEvents(strings.NewReader("{\"v\":3,\"kind\":\"round\"}\nnope\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err=%v, want a line-2 parse error", err)
	}
}
