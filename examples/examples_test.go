// Package examples_test runs every program under examples/ and compares
// its standard output with testdata/<program>.golden byte for byte. The
// programs are deterministic, so a change that moves their output (say,
// printing peel records as snapshot indices where node IDs were meant)
// fails here. Rewrite the goldens with `go test ./examples -update` only
// for a change that means to move the output, and review that diff.
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

func TestExamplesOutput(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gotLines), len(wantLines)) {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("%s output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", name, golden, i+1, g, w)
				}
			}
		})
	}
}
