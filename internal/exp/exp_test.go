package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// quickGolden holds the rendered quick-mode tables. Every table row is a
// deterministic function of the code (the counters are bit-for-bit
// reproducible at every GOMAXPROCS), so a refactor that claims identical
// behaviour must leave this file unchanged; rewrite it with
// `go test ./internal/exp -run TestAllQuick -update` only for a change
// that means to move a figure.
var quickGolden = filepath.Join("testdata", "quick.golden")

// TestAllQuick runs every experiment in quick mode end-to-end: the
// harness is itself part of the deliverable, so it must stay runnable,
// and its output must match quickGolden byte for byte.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	var buf bytes.Buffer
	if err := All(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17",
		"E18", "E19"} {
		if !strings.Contains(out, "### "+id+" ") {
			t.Errorf("output missing experiment %s", id)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("a figure-fidelity check failed:\n%s", out)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("a coherence check failed:\n%s", out)
	}
	if *update {
		if err := os.WriteFile(quickGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(out, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("quick tables differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", quickGolden, i+1, g, w)
			}
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", true)
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "### X — demo") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, "2.5000") {
		t.Fatalf("float formatting missing: %s", out)
	}
}
