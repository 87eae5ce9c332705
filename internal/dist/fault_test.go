package dist

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// faultRecorder captures the per-round fault stats alongside the
// regular round stream.
type faultRecorder struct {
	nopObserver
	mu     sync.Mutex
	rounds []RoundStats
	faults []FaultStats
}

func (r *faultRecorder) RoundEnd(stats RoundStats) {
	r.mu.Lock()
	r.rounds = append(r.rounds, stats)
	r.mu.Unlock()
}
func (r *faultRecorder) FaultRound(stats FaultStats) {
	r.mu.Lock()
	r.faults = append(r.faults, stats)
	r.mu.Unlock()
}

// TestNilAndZeroFaultsEquivalent: an all-zero fault plan must behave
// exactly like the nil fast path — same results, no fault counters, no
// FaultRound callbacks.
func TestNilAndZeroFaultsEquivalent(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3)
	ref := floodRun(t, g, 3)

	rec := &faultRecorder{}
	know, res, err := floodIDs(g, 3, RunOpts{Observer: rec, Faults: &Faults{}})
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprint(res, know)
	compareFloodRuns(t, "zero-plan", ref, got, true)
	if res.Dropped+res.Duplicated+res.DeadLetters+res.Stall != 0 {
		t.Errorf("zero plan produced fault counters: %+v", res)
	}
	if len(rec.faults) != 0 {
		t.Errorf("zero plan produced %d FaultRound callbacks", len(rec.faults))
	}
}

// TestDupAndDelayAbsorbed: the flood dedups duplicates and the
// round-synchronous model absorbs delays, so every member set must be
// the fault-free run's; only the message counters and the stall
// accounting may differ.
func TestDupAndDelayAbsorbed(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7)
	radius := 4
	ref := floodRun(t, g, radius)

	f := mustParseFaults(t, "dup=0.3,delay=3", 11)
	know, res, err := floodIDs(g, radius, RunOpts{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicated == 0 {
		t.Fatal("dup=0.3 duplicated nothing")
	}
	if res.Stall == 0 {
		t.Fatal("delay=3 charged no stall")
	}
	for v, k := range know {
		if got := k.AppendMembers(nil); !slices.Equal(got, ref.members[v]) {
			t.Fatalf("node %d: members %v under dup/delay, want %v", v, got, ref.members[v])
		}
	}
}

// TestFaultScheduleDeterministicAcrossModes: same (graph, protocol,
// seed, plan) must produce identical results — including the fault
// counters and the per-round fault stream — under every GOMAXPROCS
// setting.
func TestFaultScheduleDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 5)
	radius := 3
	run := func() (*Result, *faultRecorder) {
		rec := &faultRecorder{}
		f := mustParseFaults(t, "drop=0.1,dup=0.1,delay=2", 99)
		_, res, err := floodIDs(g, radius, RunOpts{Observer: rec, Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	var refRes *Result
	var refRec *faultRecorder
	proctest.Sweep(func(procs int) {
		gotRes, gotRec := run()
		if procs == 1 {
			refRes, refRec = gotRes, gotRec
			return
		}
		if gotRes.Dropped != refRes.Dropped || gotRes.Duplicated != refRes.Duplicated ||
			gotRes.Stall != refRes.Stall || gotRes.Messages != refRes.Messages ||
			gotRes.Volume != refRes.Volume {
			t.Fatalf("procs %d: fault counters diverged: %+v vs %+v", procs, gotRes, refRes)
		}
		if len(gotRec.faults) != len(refRec.faults) {
			t.Fatalf("procs %d: %d fault rounds, want %d", procs, len(gotRec.faults), len(refRec.faults))
		}
		for i := range refRec.faults {
			w, g := refRec.faults[i], gotRec.faults[i]
			if w.Round != g.Round || w.Dropped != g.Dropped || w.Duplicated != g.Duplicated ||
				w.Stall != g.Stall || w.DeadLetters != g.DeadLetters {
				t.Fatalf("procs %d fault round %d: %+v, want %+v", procs, i, g, w)
			}
		}
	})
}

// TestFaultRoundSumsMatchResult: the per-round FaultStats stream must
// sum to the run's Result counters.
func TestFaultRoundSumsMatchResult(t *testing.T) {
	g := gen.KTree(100, 3, 13)
	rec := &faultRecorder{}
	f := mustParseFaults(t, "drop=0.2,dup=0.2,delay=4", 3)
	_, res, err := floodIDs(g, 3, RunOpts{Observer: rec, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	var drop, dup, stall int
	for _, fs := range rec.faults {
		drop += fs.Dropped
		dup += fs.Duplicated
		stall += fs.Stall
	}
	if drop != res.Dropped || dup != res.Duplicated || stall != res.Stall {
		t.Errorf("fault stream sums (%d,%d,%d) != result (%d,%d,%d)",
			drop, dup, stall, res.Dropped, res.Duplicated, res.Stall)
	}
	if res.Dropped == 0 || res.Duplicated == 0 || res.Stall == 0 {
		t.Errorf("expected all fault kinds to fire: %+v", res)
	}
}

// TestCrashBlocksRun: a node crashed before it can finish must turn
// into a diagnosable error naming the node, not a timeout.
func TestCrashBlocksRun(t *testing.T) {
	g := gen.Path(6)
	f := mustParseFaults(t, "crash=2@1", 0)
	_, _, err := floodIDs(g, 4, RunOpts{Faults: f})
	if err == nil {
		t.Fatal("crashed node did not fail the run")
	}
	if !strings.Contains(err.Error(), "node 2 crashed at round 1") {
		t.Errorf("error %q does not name the crashed node and round", err)
	}
}

// TestCrashDeadLetters: messages to a crashed node are counted as dead
// letters and the crash round is reported via FaultRound.
func TestCrashDeadLetters(t *testing.T) {
	g := gen.Path(6)
	rec := &faultRecorder{}
	f := mustParseFaults(t, "crash=2@1", 0)
	_, _, err := runIDs(graph.NewIndexed(g), RunOpts{Observer: rec, Faults: f}, 10, func(v graph.ID) Protocol {
		return &countingProtocol{limit: 3}
	})
	if err == nil {
		t.Fatal("want crash error")
	}
	sawCrash := false
	for _, fs := range rec.faults {
		for _, v := range fs.Crashed {
			if v == 2 {
				if fs.Round != 1 {
					t.Errorf("crash of node 2 reported at round %d, want 1", fs.Round)
				}
				sawCrash = true
			}
		}
	}
	if !sawCrash {
		t.Error("crash of node 2 never reported via FaultRound")
	}
}

// TestCrashUnknownNode: a crash schedule naming a non-node is rejected
// up front.
func TestCrashUnknownNode(t *testing.T) {
	g := gen.Path(3)
	_, _, err := runIDs(graph.NewIndexed(g), RunOpts{Faults: mustParseFaults(t, "crash=99@1", 0)}, 10, func(v graph.ID) Protocol {
		return &countingProtocol{limit: 2}
	})
	if err == nil || !strings.Contains(err.Error(), "not a node of the network") {
		t.Fatalf("unknown crash node: err = %v", err)
	}
}

// TestDropCorruptsPlainFlood documents the failure mode the
// retransmitting variant exists for: under drops the round-counted
// flood still "succeeds" but collects strictly less knowledge.
func TestDropCorruptsPlainFlood(t *testing.T) {
	g := gen.KTree(150, 3, 21)
	radius := 3
	ref := floodRun(t, g, radius)
	f := mustParseFaults(t, "drop=0.4", 17)
	know, res, err := floodIDs(g, radius, RunOpts{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("drop=0.4 dropped nothing")
	}
	lost := 0
	for v, k := range know {
		if k.Size() < len(ref.members[v]) {
			lost++
		}
	}
	if lost == 0 {
		t.Error("40% drop rate lost no knowledge anywhere — fault injection is not reaching delivery")
	}
}

// mustParseFaults builds the schedule of (spec, seed), failing the test
// on a parse error.
func mustParseFaults(t testing.TB, spec string, seed uint64) *Faults {
	t.Helper()
	f, err := ParseFaults(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParseFaults: an empty spec collapses to (nil, nil) — the
// documented "no plan requested" fast path — while a syntactically
// valid but inert spec surfaces as ErrFaultsInactive so a typo'd rate
// of 0.0 can no longer silently run a fault-free chaos experiment.
// Crash IDs are converted, and the ParseFaults inputs are recorded on
// the schedule for the partitioned runtime.
func TestParseFaults(t *testing.T) {
	if f, err := ParseFaults("", 1); err != nil || f != nil {
		t.Errorf("empty spec: (%v, %v), want (nil, nil)", f, err)
	}
	if f, err := ParseFaults("  \t", 1); err != nil || f != nil {
		t.Errorf("blank spec: (%v, %v), want (nil, nil)", f, err)
	}
	f, err := ParseFaults("drop=0,dup=0", 1)
	if f != nil {
		t.Errorf("no-op spec returned a plan: %+v", f)
	}
	if !errors.Is(err, ErrFaultsInactive) {
		t.Errorf("no-op spec: err = %v, want ErrFaultsInactive", err)
	}
	if !strings.Contains(err.Error(), `"drop=0,dup=0": fault spec can never fire`) || !strings.Contains(err.Error(), "for a fault-free run") {
		t.Errorf("no-op spec: err = %v, want the spec and the way out named", err)
	}
	if _, err := ParseFaults("delay=0", 1); !errors.Is(err, ErrFaultsInactive) {
		t.Errorf("delay=0: err = %v, want ErrFaultsInactive", err)
	}
	f, err = ParseFaults("drop=0.5,crash=7@3", 9)
	if err != nil {
		t.Fatal(err)
	}
	if f.drop != 0.5 || f.seed != 9 || f.crash[graph.ID(7)] != 3 {
		t.Errorf("parsed %+v", f)
	}
	if f.spec != "drop=0.5,crash=7@3" || f.seed != 9 {
		t.Errorf("ParseFaults inputs not recorded: spec=%q seed=%d", f.spec, f.seed)
	}
	if _, err := ParseFaults("drop=2", 1); err == nil {
		t.Error("bad spec accepted")
	}
	// A NaN rate is not a probability: it must not parse into a plan
	// whose drop never fires, nor be misreported as an inactive spec.
	for _, spec := range []string{"drop=NaN,dup=0.5", "drop=NaN"} {
		if f, err := ParseFaults(spec, 1); err == nil || errors.Is(err, ErrFaultsInactive) || !strings.Contains(err.Error(), "not a probability") {
			t.Errorf("ParseFaults(%q) = (%+v, %v), want a not-a-probability error", spec, f, err)
		}
	}
}

// TestParseFaultsGrammar walks the spec grammar: every key, repeated
// crashes, and each way a field can be malformed or out of range.
func TestParseFaultsGrammar(t *testing.T) {
	tests := []struct {
		spec    string
		want    *Faults // spec and seed are filled in from the case
		wantErr bool
	}{
		{spec: ""},
		{spec: "drop=0.25", want: &Faults{drop: 0.25}},
		{spec: "dup=0.1,delay=3", want: &Faults{dup: 0.1, maxDelay: 3}},
		{
			spec: "drop=0.5,crash=4@2,crash=17@0",
			want: &Faults{drop: 0.5, crash: map[graph.ID]int{4: 2, 17: 0}},
		},
		{spec: "drop=1.5", wantErr: true},
		// NaN fails every comparison, so a plain range test let it through
		// as a drop rate that never fires.
		{spec: "drop=NaN", wantErr: true},
		{spec: "dup=nan", wantErr: true},
		{spec: "drop=NaN,dup=0.5", wantErr: true},
		{spec: "dup=+Inf", wantErr: true},
		{spec: "drop=-0.1", wantErr: true},
		{spec: "delay=-1", wantErr: true},
		{spec: "crash=4", wantErr: true},
		{spec: "crash=x@2", wantErr: true},
		{spec: "crash=4@-1", wantErr: true},
		{spec: "bogus=1", wantErr: true},
		{spec: "drop", wantErr: true},
	}
	for _, tc := range tests {
		f, err := ParseFaults(tc.spec, 5)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFaults(%q): want error, got %+v", tc.spec, f)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", tc.spec, err)
			continue
		}
		if tc.want != nil {
			tc.want.spec, tc.want.seed = tc.spec, 5
		}
		if !reflect.DeepEqual(f, tc.want) {
			t.Errorf("ParseFaults(%q) = %+v, want %+v", tc.spec, f, tc.want)
		}
	}
}

// FuzzParseFaults: no spec panics the parser; an accepted spec has every
// rate in [0,1] and a non-negative delay and crash rounds; and re-parsing
// the spec the plan records reproduces the same plan, which is what the
// partitioned runtime relies on when shards re-parse it.
func FuzzParseFaults(f *testing.F) {
	f.Add("drop=0.2,dup=0.2,delay=2", uint64(7))
	f.Add("drop=NaN,dup=0.5", uint64(1))
	f.Add("drop=0.5,crash=7@3,crash=-2@0", uint64(9))
	f.Add("dup=1e-300", uint64(0))
	f.Add(" delay=1 ", uint64(3))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		fs, err := ParseFaults(spec, seed)
		if err != nil || fs == nil {
			return
		}
		if !(fs.drop >= 0 && fs.drop <= 1) || !(fs.dup >= 0 && fs.dup <= 1) || fs.maxDelay < 0 {
			t.Fatalf("ParseFaults(%q) accepted plan %+v", spec, fs)
		}
		for v, r := range fs.crash {
			if r < 0 {
				t.Fatalf("ParseFaults(%q) accepted crash %d@%d", spec, v, r)
			}
		}
		again, err := ParseFaults(fs.spec, fs.seed)
		if err != nil || !reflect.DeepEqual(again, fs) {
			t.Fatalf("re-parsing %q: (%+v, %v), want %+v", fs.spec, again, err, fs)
		}
	})
}

func TestDecideDeterministic(t *testing.T) {
	f := mustParseFaults(t, "drop=0.3,dup=0.3,delay=4", 42)
	for round := 0; round < 5; round++ {
		for sender := 0; sender < 5; sender++ {
			for pos := 0; pos < 5; pos++ {
				a := f.decide(round, sender, pos)
				b := f.decide(round, sender, pos)
				if a != b {
					t.Fatalf("decide(%d,%d,%d) not stable: %+v vs %+v", round, sender, pos, a, b)
				}
			}
		}
	}
}

func TestDecideZeroPlan(t *testing.T) {
	var f Faults
	if f.perturbs() || f.active() {
		t.Fatal("zero schedule reports perturbs or active")
	}
	if a := f.decide(3, 7, 11); a != (faultAction{}) {
		t.Fatalf("zero schedule produced action %+v", a)
	}
}

// TestDecideRates checks the drop/dup streams hit their configured
// probabilities to within a loose tolerance, and that delays cover the
// full [0, maxDelay] range.
func TestDecideRates(t *testing.T) {
	f := mustParseFaults(t, "drop=0.25,dup=0.25,delay=3", 7)
	const total = 40000
	drops, dups := 0, 0
	delaySeen := make(map[int]bool)
	for i := 0; i < total; i++ {
		a := f.decide(i%97, i%31, i%53)
		if a.drop {
			drops++
		}
		if a.dup {
			dups++
		}
		if a.delay < 0 || a.delay > f.maxDelay {
			t.Fatalf("delay %d outside [0,%d]", a.delay, f.maxDelay)
		}
		delaySeen[a.delay] = true
	}
	if got := float64(drops) / total; got < 0.20 || got > 0.30 {
		t.Errorf("drop rate %.3f, want ~0.25", got)
	}
	// Dup is only decided for non-dropped messages, so its observed rate
	// is 0.25 of the surviving 75%.
	if got := float64(dups) / total; got < 0.14 || got > 0.24 {
		t.Errorf("dup rate %.3f, want ~0.1875", got)
	}
	for d := 0; d <= f.maxDelay; d++ {
		if !delaySeen[d] {
			t.Errorf("delay value %d never drawn", d)
		}
	}
}

// TestDecideStreamsIndependent: changing the drop rate must not change
// which surviving messages get duplicated or delayed.
func TestDecideStreamsIndependent(t *testing.T) {
	lo := mustParseFaults(t, "drop=0.01,dup=0.5,delay=5", 9)
	hi := mustParseFaults(t, "drop=0.99,dup=0.5,delay=5", 9)
	for i := 0; i < 2000; i++ {
		a, b := lo.decide(i, i%13, i%7), hi.decide(i, i%13, i%7)
		if a.drop || b.drop {
			continue // both survived in neither plan or one of them
		}
		if a.dup != b.dup || a.delay != b.delay {
			t.Fatalf("coord %d: dup/delay shifted with drop rate: %+v vs %+v", i, a, b)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs of the SplitMix64 generator seeded with 0 and
	// 1234567 (first output = finalizer applied to the seed).
	if got := splitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("splitMix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	if got := splitMix64(1234567); got != splitMix64(1234567) {
		t.Error("splitMix64 not a pure function")
	}
	if splitMix64(1) == splitMix64(2) {
		t.Error("splitMix64 collides on adjacent inputs")
	}
}
