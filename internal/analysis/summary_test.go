package analysis

import "testing"

func summaryByName(t *testing.T, facts *Facts, name string) *Summary {
	t.Helper()
	return facts.SummaryOf(nodeByName(t, facts.Graph, name))
}

func TestSummaryMutatesParam(t *testing.T) {
	facts := loadFacts(t, "callgraph")

	if s := summaryByName(t, facts, "mutateElem"); !s.MutatesParam[0] {
		t.Errorf("mutateElem: element write not summarized as parameter mutation")
	}
	if s := summaryByName(t, facts, "forwardMutate"); !s.MutatesParam[0] {
		t.Errorf("forwardMutate: mutation fact did not propagate through the call")
	}
	if s := summaryByName(t, facts, "rebindOnly"); s.MutatesParam[0] {
		t.Errorf("rebindOnly: plain rebinding is not caller-visible, must not be a mutation")
	}
	if s := summaryByName(t, facts, "mutateAlias"); !s.MutatesParam[0] {
		t.Errorf("mutateAlias: write through a re-slice alias not summarized")
	}
}

func TestSummaryRunsParamInGoroutine(t *testing.T) {
	facts := loadFacts(t, "callgraph")

	if s := summaryByName(t, facts, "runCallback"); !s.RunsParamInGoroutine[0] {
		t.Errorf("runCallback: callback invoked in spawned literal not summarized")
	}
	if s := summaryByName(t, facts, "forwardCallback"); !s.RunsParamInGoroutine[0] {
		t.Errorf("forwardCallback: runs-in-goroutine fact did not propagate through forwarding")
	}
	if s := summaryByName(t, facts, "runCallback"); !s.SpawnsGoroutine {
		t.Errorf("runCallback: go statement not summarized")
	}
	if s := summaryByName(t, facts, "callNow"); !s.CallsParam[0] || s.RunsParamInGoroutine[0] {
		t.Errorf("callNow: CallsParam=%v RunsParamInGoroutine=%v, want a synchronous call", s.CallsParam[0], s.RunsParamInGoroutine[0])
	}
	if s := summaryByName(t, facts, "spawnNamed"); !s.RunsParamInGoroutine[0] {
		t.Errorf("spawnNamed: callback passed to go callThenClose(…), which calls it, not summarized as run on a goroutine")
	}
}

func TestSummaryAllocKinds(t *testing.T) {
	facts := loadFacts(t, "callgraph")

	kinds := make(map[string]int)
	for _, a := range summaryByName(t, facts, "allocKinds").Allocs {
		kinds[a.Kind]++
	}
	for _, want := range []string{"make(map)", "make(slice)", "new", "&composite", "slice literal", "append", "closure"} {
		if kinds[want] == 0 {
			t.Errorf("allocKinds: missing %q site; got %v", want, kinds)
		}
	}
	// The &composite must not double-count its inner literal.
	if kinds["&composite"] != 1 {
		t.Errorf("allocKinds: &composite counted %d times, want 1", kinds["&composite"])
	}

	for _, a := range summaryByName(t, facts, "preallocAppend").Allocs {
		if a.Kind == "append" {
			t.Errorf("preallocAppend: append with prealloc evidence counted as a site")
		}
	}
}

func TestSummaryReturnsView(t *testing.T) {
	facts := loadFacts(t, "snapshotmut")

	s := summaryByName(t, facts, "viewRows")
	if !s.ReturnsView || s.ViewSource != "graph.Indexed.IDs" {
		t.Errorf("viewRows: ReturnsView=%v ViewSource=%q, want true/graph.Indexed.IDs", s.ReturnsView, s.ViewSource)
	}
	if s := summaryByName(t, facts, "readLen"); s.ReturnsView {
		t.Errorf("readLen: summarized as returning a view")
	}
}

func TestHotPathReportsDeterministic(t *testing.T) {
	facts := loadFacts(t, "hotalloc")

	a := HotPathReports(facts)
	b := HotPathReports(facts)
	if len(a) == 0 {
		t.Fatal("hotalloc fixture produced no hot-path reports")
	}
	for i := range a {
		if a[i].Root.Node != b[i].Root.Node || a[i].Sites != b[i].Sites || a[i].Breakdown() != b[i].Breakdown() {
			t.Errorf("report %d differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
	// Roots arrive in position order.
	for i := 1; i < len(a); i++ {
		pa, pb := facts.Graph.Fset.Position(a[i-1].Root.Pos), facts.Graph.Fset.Position(a[i].Root.Pos)
		if pa.Filename == pb.Filename && pa.Offset > pb.Offset {
			t.Errorf("hot roots out of position order: %s then %s", pa, pb)
		}
	}
}
