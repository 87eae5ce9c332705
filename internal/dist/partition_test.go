package dist

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// These tests pin the partitioned runtime's headline property: a
// partitioned run is observationally identical to a LOCAL engine run —
// same outputs, same Result counters, same RoundStats and FaultStats
// streams — for every shard count, fault-free and under fault plans.
// The LocalLink transport is used so the comparison isolates the
// runtime's ordering and codec semantics from the wire (internal/wire
// has its own tests, and the cross-check suite in internal/core runs
// real child processes).

// partRecorder extends recordingObserver with the FaultObserver and
// WireObserver extensions, capturing everything a partitioned run can
// report.
type partRecorder struct {
	recordingObserver
	faults    []FaultStats
	wireCalls int
}

func (f *partRecorder) FaultRound(fs FaultStats) {
	f.faults = append(f.faults, fs)
}

func (f *partRecorder) WireRound(round int, in, out int64) {
	f.wireCalls++
}

func newPartRecorder() *partRecorder {
	r := &partRecorder{}
	r.shardStarts = make(map[int]int)
	r.shardEnds = make(map[int]int)
	return r
}

// samePartKnowledge requires a and b, knowledge on ix, to agree on
// every observable: identity, member set, regime, and index-space
// membership.
func samePartKnowledge(t *testing.T, at string, ix *graph.Indexed, a, b *Knowledge) {
	t.Helper()
	if a.Center != b.Center || a.Radius != b.Radius || a.Size() != b.Size() {
		t.Fatalf("%s: knowledge header (%d, %d, %d) != (%d, %d, %d)",
			at, a.Center, a.Radius, a.Size(), b.Center, b.Radius, b.Size())
	}
	if (a.seen == nil) != (b.seen == nil) {
		t.Fatalf("%s: dense regime %v != %v", at, a.seen != nil, b.seen != nil)
	}
	if am, bm := a.AppendMembers(nil), b.AppendMembers(nil); !slices.Equal(am, bm) {
		t.Fatalf("%s: members %v != %v", at, am, bm)
	}
	for i := range int32(ix.NumNodes()) {
		if a.KnownIdx(i) != b.KnownIdx(i) {
			t.Fatalf("%s: KnownIdx(%d) %v != %v", at, i, a.KnownIdx(i), b.KnownIdx(i))
		}
	}
}

func sameResult(t *testing.T, at string, a, b *Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Volume != b.Volume {
		t.Fatalf("%s: result (rounds %d, msgs %d, vol %d) != (rounds %d, msgs %d, vol %d)",
			at, a.Rounds, a.Messages, a.Volume, b.Rounds, b.Messages, b.Volume)
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated ||
		a.DeadLetters != b.DeadLetters || a.Stall != b.Stall {
		t.Fatalf("%s: fault counters (%d, %d, %d, %d) != (%d, %d, %d, %d)", at,
			a.Dropped, a.Duplicated, a.DeadLetters, a.Stall,
			b.Dropped, b.Duplicated, b.DeadLetters, b.Stall)
	}
}

func TestPartitionedFloodMatchesLocal(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal": gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 11),
		"path":    gen.Path(40),
	}
	for name, g := range graphs {
		ix := graph.NewIndexed(g)
		for _, radius := range []int{0, 1, 4} {
			lObs := newPartRecorder()
			lKs, lRes, err := Flood(ix, radius, RunOpts{Observer: lObs})
			if err != nil {
				t.Fatalf("%s r=%d: local flood: %v", name, radius, err)
			}
			for _, parts := range []int{1, 2, 3, 5} {
				pObs := newPartRecorder()
				part := NewLocalPartition(ix, parts)
				pKs, pRes, err := Flood(ix, radius, RunOpts{Observer: pObs, Part: part})
				if err != nil {
					t.Fatalf("%s r=%d p=%d: partitioned flood: %v", name, radius, parts, err)
				}
				at := fmt.Sprintf("%s/r%d/parts%d", name, radius, parts)
				sameResult(t, at, lRes, pRes)
				for i := range lKs {
					samePartKnowledge(t, at, ix, lKs[i], pKs[i])
				}
				if !reflect.DeepEqual(scheduleFree(lObs.rounds), scheduleFree(pObs.rounds)) {
					t.Fatalf("%s: round stats diverge:\nlocal: %+v\npart:  %+v",
						at, lObs.rounds, pObs.rounds)
				}
				if !reflect.DeepEqual(lObs.runEnds, pObs.runEnds) {
					t.Fatalf("%s: RunEnd %v != %v", at, lObs.runEnds, pObs.runEnds)
				}
				if pObs.wireCalls != 0 {
					t.Fatalf("%s: LocalLink partition fired %d WireRound calls, want 0", at, pObs.wireCalls)
				}
			}
		}
	}
}

func TestPartitionedFloodFaultyMatchesLocal(t *testing.T) {
	g := gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 17)
	ix := graph.NewIndexed(g)
	for _, spec := range []string{
		"drop=0.2",
		"dup=0.3",
		"delay=2,dup=0.1",
		"drop=0.15,dup=0.1,delay=1",
	} {
		f, err := ParseFaults(spec, 41)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		lObs := newPartRecorder()
		lKs, lRes, err := Flood(ix, 3, RunOpts{Observer: lObs, Faults: f})
		if err != nil {
			t.Fatalf("%q: local flood: %v", spec, err)
		}
		for _, parts := range []int{2, 4} {
			pf, err := ParseFaults(spec, 41)
			if err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			pObs := newPartRecorder()
			part := NewLocalPartition(ix, parts)
			pKs, pRes, err := Flood(ix, 3, RunOpts{Observer: pObs, Faults: pf, Part: part})
			if err != nil {
				t.Fatalf("%q p=%d: partitioned flood: %v", spec, parts, err)
			}
			sameResult(t, spec, lRes, pRes)
			for i := range lKs {
				samePartKnowledge(t, spec, ix, lKs[i], pKs[i])
			}
			if !reflect.DeepEqual(lObs.faults, pObs.faults) {
				t.Fatalf("%q p=%d: fault stats diverge:\nlocal: %+v\npart:  %+v",
					spec, parts, lObs.faults, pObs.faults)
			}
			if !reflect.DeepEqual(scheduleFree(lObs.rounds), scheduleFree(pObs.rounds)) {
				t.Fatalf("%q p=%d: round stats diverge", spec, parts)
			}
		}
	}
}

func TestPartitionedCrashBlockedMatchesLocal(t *testing.T) {
	g := gen.Path(20)
	ix := graph.NewIndexed(g)
	crashed := ix.IDOf(7)
	spec := fmt.Sprintf("crash=%d@1", crashed)
	f, err := ParseFaults(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, lErr := Flood(ix, 3, RunOpts{Faults: f})
	if lErr == nil {
		t.Fatal("local flood survived a crashed node")
	}
	pf, err := ParseFaults(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	part := NewLocalPartition(ix, 3)
	_, _, pErr := Flood(ix, 3, RunOpts{Faults: pf, Part: part})
	if pErr == nil {
		t.Fatal("partitioned flood survived a crashed node")
	}
	if lErr.Error() != pErr.Error() {
		t.Fatalf("crash-blocked errors diverge:\nlocal: %v\npart:  %v", lErr, pErr)
	}
	if !strings.Contains(pErr.Error(), "crashed at round 1 and cannot finish") {
		t.Fatalf("unexpected crash-blocked error: %v", pErr)
	}
}

func TestPartitionedRetransMatchesLocal(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 23)
	ix := graph.NewIndexed(g)
	const radius, budget = 3, 200
	for _, spec := range []string{"", "drop=0.2"} {
		var f, pf *Faults
		var err error
		if spec != "" {
			if f, err = ParseFaults(spec, 13); err != nil {
				t.Fatal(err)
			}
			if pf, err = ParseFaults(spec, 13); err != nil {
				t.Fatal(err)
			}
		}
		lKs, lRes, err := FloodRetrans(ix, radius, budget, RunOpts{Faults: f})
		if err != nil {
			t.Fatalf("%q: local retrans: %v", spec, err)
		}
		part := NewLocalPartition(ix, 4)
		pKs, pRes, err := FloodRetrans(ix, radius, budget, RunOpts{Faults: pf, Part: part})
		if err != nil {
			t.Fatalf("%q: partitioned retrans: %v", spec, err)
		}
		sameResult(t, spec, lRes, pRes)
		for i := range lKs {
			samePartKnowledge(t, spec, ix, lKs[i], pKs[i])
		}
	}
}

func TestPartitionedRejectsHandBuiltFaults(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(10))
	part := NewLocalPartition(ix, 2)
	f := &Faults{Crash: map[graph.ID]int{ix.IDOf(0): 1}} // no Spec
	_, _, err := Flood(ix, 2, RunOpts{Faults: f, Part: part})
	if err == nil || !strings.Contains(err.Error(), "ParseFaults-built") {
		t.Fatalf("hand-built Faults accepted: %v", err)
	}
}

// startSpy is a ShardLink that counts the runs started on it.
type startSpy struct {
	ShardLink
	starts int
}

func (l *startSpy) Start(cfg ShardConfig) error {
	l.starts++
	return l.ShardLink.Start(cfg)
}

// TestPartitionedRunNeedsCodecs: only a partitioned run needs the
// Program codecs, so nodes without them run LOCAL, and on a partition
// fail with an error naming their type before any shard starts.
func TestPartitionedRunNeedsCodecs(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(10))
	nodes := NodeFunc(func(int) Protocol { return &countingProtocol{limit: 2} })
	if _, _, err := Run(ix, nodes, RunOpts{}, 5); err != nil {
		t.Fatalf("LOCAL run: %v", err)
	}
	part := NewLocalPartition(ix, 2)
	spy := &startSpy{ShardLink: part.Links[0]}
	part.Links[0] = spy
	_, _, err := Run(ix, nodes, RunOpts{Part: part}, 5)
	if err == nil || !strings.Contains(err.Error(), "dist.NodeFunc has no codecs") {
		t.Fatalf("partitioned run of a NodeFunc: %v", err)
	}
	if spy.starts != 0 {
		t.Fatalf("%d shard runs started before the error", spy.starts)
	}
}

func TestSplitRange(t *testing.T) {
	cases := []struct {
		n, parts int
		want     []PartRange
	}{
		{10, 3, []PartRange{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, []PartRange{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, []PartRange{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, []PartRange{{0, 5}}},
		{5, 0, []PartRange{{0, 5}}},
	}
	for _, c := range cases {
		got := SplitRange(c.n, c.parts)
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("SplitRange(%d, %d) = %v, want %v", c.n, c.parts, got, c.want)
		}
	}
}

func TestShardRunnerDeliverBeforeStep(t *testing.T) {
	ix := graph.NewIndexed(gen.Path(6))
	_, params, err := newFloodProgram(ix, 1).Params()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewShardRunner(ix, ShardConfig{Shard: 0, Ranges: SplitRange(ix.NumNodes(), 2), Program: "flood", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deliver(nil); err == nil || !strings.Contains(err.Error(), "without a preceding Step") {
		t.Fatalf("Deliver before Step: %v", err)
	}
}
