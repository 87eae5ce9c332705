package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFaultMatrixOutcomes pins the contract the E20 table demonstrates:
// absorbable scenarios reproduce the baseline exactly, and drop/crash
// scenarios land on their detection paths — no scenario may reach the
// "DIVERGED (undetected)" escape hatch.
func TestFaultMatrixOutcomes(t *testing.T) {
	tbl, err := E20FaultMatrix(true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fault-free":  "identical",
		"dup p=0.30":  "identical",
		"delay ≤2":    "identical",
		"dup+delay":   "identical",
		"drop p=0.30": "corruption detected",
		"crash 7@2":   "crash reported",
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		if got := row[1]; got != want[row[0]] {
			t.Errorf("scenario %q: outcome %q, want %q", row[0], got, want[row[0]])
		}
	}
}

// TestRetransFloodExact requires the E21 knowledge column to read
// "exact" on every row: under every tabled drop rate the retransmitting
// flood fully reconstructs the lossless balls.
func TestRetransFloodExact(t *testing.T) {
	if testing.Short() {
		t.Skip("retrans sweep is slow")
	}
	tbl, err := E21RetransFlood(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "exact" {
			t.Errorf("drop %s: knowledge %q, want exact", row[0], row[len(row)-1])
		}
	}
}

// TestChaosTablesDeterministic regenerates E20 and E21 twice and
// requires byte-identical tables: the fault schedule is a pure function
// of the seed, so the chaos tables must be as reproducible as the
// fault-free ones.
func TestChaosTablesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tables are slow")
	}
	for _, run := range []func(bool) (*Table, error){E20FaultMatrix, E21RetransFlood} {
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

// TestFaultTraceRunSchema runs the -faults trace workload in quick mode
// and checks the stream: valid schema-v2 JSONL, fault fields present on
// some rounds, and both workload phases covered.
func TestFaultTraceRunSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("fault trace workload is slow")
	}
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.SetTrace(&buf)
	if err := FaultTraceRunCollector(c, true, "drop=0.2,dup=0.2,delay=2", 7, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short trace: %d lines", len(lines))
	}
	sawFault := false
	for i, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: invalid JSON: %v\n%s", i, err, line)
		}
		if ev.V != obs.SchemaVersion {
			t.Fatalf("line %d: schema version %d, want %d", i, ev.V, obs.SchemaVersion)
		}
		if ev.Dropped > 0 || ev.Duplicated > 0 || ev.Stall > 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("no trace event carried fault counters")
	}
	out := buf.String()
	for _, phase := range []string{"prune-i01", "correction", "retrans-n300"} {
		if !strings.Contains(out, `"phase":"`+phase+`"`) {
			t.Errorf("trace missing phase %q", phase)
		}
	}
}
