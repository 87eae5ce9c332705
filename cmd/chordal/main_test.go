package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestMain makes the test binary a valid shard host: the partitioned
// tests spawn copies of it via wire.SelfSpawn, exactly as the installed
// binary re-executes itself under -partitions.
func TestMain(m *testing.M) {
	wire.MaybeShardHost()
	os.Exit(m.Run())
}

func TestRunAlgorithms(t *testing.T) {
	for _, alg := range []string{"color", "mis", "mis-interval", "exact-color",
		"exact-mis", "greedy", "luby", "forest", "check", "color-any", "stats"} {
		genKind := "random"
		if alg == "mis-interval" {
			genKind = "interval"
		}
		if err := run(alg, 0.5, "", "", genKind, 60, 4, 1, 0, "", false, "", 7, "", "", ""); err != nil {
			t.Errorf("alg %s: %v", alg, err)
		}
	}
}

func TestRunDistributedAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are slower")
	}
	if err := run("color-dist", 0.7, "", "", "random", 50, 4, 2, 0, "", false, "", 7, "", "", ""); err != nil {
		t.Errorf("color-dist: %v", err)
	}
	if err := run("mis-dist", 0.8, "", "", "random", 40, 4, 2, 0, "", false, "", 7, "", "", ""); err != nil {
		t.Errorf("mis-dist: %v", err)
	}
}

func TestRunTraceAndProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are slower")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run("color-dist", 0.7, "", "", "random", 50, 4, 2, 0, trace, false, "", 7, cpu, mem, ""); err != nil {
		t.Fatalf("traced color-dist: %v", err)
	}
	for _, p := range []string{trace, cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestRunMetrics(t *testing.T) {
	// -metrics without -trace: the collector stays in memory and only
	// the stderr tables appear; the runs must succeed for both the
	// centralized and distributed pipelines.
	if err := run("color", 0.5, "", "", "random", 60, 4, 1, 0, "", true, "", 7, "", "", ""); err != nil {
		t.Errorf("color -metrics: %v", err)
	}
	if err := run("mis", 0.5, "", "", "random", 60, 4, 1, 0, "", true, "", 7, "", "", ""); err != nil {
		t.Errorf("mis -metrics: %v", err)
	}
	if testing.Short() {
		return
	}
	// -metrics with -trace persists the v3 records for cmd/tracestat.
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run("color-dist", 0.7, "", "", "random", 50, 4, 2, 0, trace, true, "", 7, "", "", ""); err != nil {
		t.Fatalf("color-dist -metrics -trace: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"kind":"kernel"`, `"kind":"phase"`, `"kind":"mem"`} {
		if !strings.Contains(string(data), kind) {
			t.Errorf("metrics trace missing %s records", kind)
		}
	}
}

func TestRunGenerateAndLoad(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "g.json")
	if err := run("gen", 0.5, "", file, "random", 30, 4, 3, 0, "", false, "", 7, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatal(err)
	}
	if err := run("color", 0.5, file, "", "", 0, 0, 0, 0, "", false, "", 7, "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", 0.5, "", "", "random", 10, 3, 1, 0, "", false, "", 7, "", "", ""); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run("color", 0.5, "", "", "nope", 10, 3, 1, 0, "", false, "", 7, "", "", ""); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := run("color", 0.5, "/does/not/exist.json", "", "", 0, 0, 0, 0, "", false, "", 7, "", "", ""); err == nil {
		t.Error("missing input file accepted")
	}
	if err := run("mis", math.NaN(), "", "", "random", 10, 3, 1, 0, "", false, "", 7, "", "", ""); err == nil {
		t.Error("-eps NaN accepted")
	}
	// k = ⌈2/ε⌉ = 2³¹−3 would wrap the strip kernel's int32 horizon.
	err := run("color", 9.313225759165211e-10, "", "", "random", 200, 5, 1, 0, "", false, "", 7, "", "", "")
	if err == nil || !strings.HasPrefix(err.Error(), "epsilon too small, got 9.313225759165211e-10") {
		t.Errorf("-eps 9.313225759165211e-10: err = %v, want it rejected as too small", err)
	}
}

func TestRunAllGenerators(t *testing.T) {
	for _, kind := range []string{"random", "interval", "tree", "path", "ktree"} {
		if err := run("check", 0.5, "", "", kind, 40, 3, 4, 0, "", false, "", 7, "", "", ""); err != nil {
			t.Errorf("generator %s: %v", kind, err)
		}
	}
}

func TestRunRecognize(t *testing.T) {
	if err := run("recognize", 0.5, "", "", "interval", 40, 4, 2, 0, "", false, "", 7, "", "", ""); err != nil {
		t.Fatal(err)
	}
	// Non-interval input is rejected cleanly.
	if err := run("recognize", 0.5, "", "", "random", 60, 4, 3, 0, "", false, "", 7, "", "", ""); err == nil {
		t.Log("random chordal happened to be interval; acceptable")
	}
}

func TestRunPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	// The full distributed pipelines on 2 shard-host child processes;
	// results are verified by the same reportColoring/reportMIS checks as
	// the LOCAL runs (and byte-identity is pinned by the cross-check
	// suites in internal/core and internal/wire).
	if err := run("color-dist", 0.7, "", "", "random", 50, 4, 2, 2, "", false, "", 7, "", "", ""); err != nil {
		t.Errorf("color-dist -partitions 2: %v", err)
	}
	if err := run("mis-dist", 0.8, "", "", "random", 40, 4, 2, 2, "", false, "", 7, "", "", ""); err != nil {
		t.Errorf("mis-dist -partitions 2: %v", err)
	}
	// Partitioned runs accept ParseFaults-built schedules too.
	if err := run("color-dist", 0.7, "", "", "random", 50, 4, 2, 2, "", false, "dup=0.2,delay=2", 7, "", "", ""); err != nil {
		t.Errorf("color-dist -partitions 2 under dup+delay: %v", err)
	}
	// On the empty graph a 2-shard partition is one empty range, and
	// with χ = α = 0 the reports print no ratio.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"nodes":[],"edges":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"color-dist", "mis-dist"} {
		out, err := stdoutOf(t, func() error {
			return run(alg, 0.5, empty, "", "", 0, 0, 0, 2, "", false, "", 7, "", "", "")
		})
		if err != nil || strings.Contains(out, "ratio") {
			t.Errorf("%s -partitions 2 on the empty graph: err = %v, stdout %q", alg, err, out)
		}
	}
	// -partitions on a non-distributed algorithm is a usage error.
	if err := run("color", 0.5, "", "", "random", 30, 4, 1, 2, "", false, "", 7, "", "", ""); err == nil {
		t.Error("-partitions accepted for a centralized algorithm")
	}
}

// stdoutOf runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func stdoutOf(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = f()
	os.Stdout = stdout
	w.Close()
	return string(<-printed), err
}

func TestRunFaultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are slower")
	}
	// Absorbable faults (duplication + delay) leave the distributed
	// coloring correct; the run must succeed.
	if err := run("color-dist", 0.7, "", "", "random", 50, 4, 2, 0, "", false, "dup=0.2, delay=2", 7, "", "", ""); err != nil {
		t.Errorf("color-dist under dup+delay: %v", err)
	}
	// -faults on a non-distributed algorithm is a usage error.
	if err := run("color", 0.5, "", "", "random", 30, 4, 1, 0, "", false, "dup=0.2", 7, "", "", ""); err == nil {
		t.Error("-faults accepted for a centralized algorithm")
	}
	// A malformed spec is rejected before any work happens.
	if err := run("color-dist", 0.7, "", "", "random", 30, 4, 1, 0, "", false, "dorp=0.2", 7, "", "", ""); err == nil {
		t.Error("malformed -faults spec accepted")
	}
}
