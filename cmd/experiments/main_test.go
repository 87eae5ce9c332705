package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/wire"
)

// TestMain makes the test binary a valid shard host: the partitioned
// tests spawn copies of it via wire.SelfSpawn, exactly as the installed
// binary re-executes itself under -partitions.
func TestMain(m *testing.M) {
	wire.MaybeShardHost()
	os.Exit(m.Run())
}

// TestTraceAndProfileSmoke is the acceptance path of the observability
// PR: -trace plus -cpuprofile produce a non-empty JSONL trace and a
// non-empty profile.
func TestTraceAndProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trace workload is slow")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run(true, "", trace, false, 0, "", 7, cpu, mem, ""); err != nil {
		t.Fatal(err)
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

func TestOnlySelection(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	if err := run(true, "E18, E19", "", false, 0, "", 7, "", "", ""); err != nil {
		t.Fatal(err)
	}
	err := run(true, "E18,E99", "", false, 0, "", 7, "", "", "")
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "E99"`) || !strings.Contains(err.Error(), "E1, E2,") {
		t.Fatalf("-only E18,E99: error %v, want an unknown-ID error listing the known IDs", err)
	}
}

func TestFaultsRequireTrace(t *testing.T) {
	if err := run(true, "", "", false, 0, "drop=0.2", 7, "", "", ""); err == nil {
		t.Error("-faults without -trace accepted")
	}
}

// TestFaultSpecEdges: an inactive -faults spec fails with the error
// dist.ParseFaults wraps around ErrFaultsInactive, and an all-blank one
// runs the fault-trace workload fault-free.
func TestFaultSpecEdges(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "out.jsonl")
	if err := run(true, "", trace, false, 0, "drop=0,dup=0", 7, "", "", ""); !errors.Is(err, dist.ErrFaultsInactive) {
		t.Errorf("inactive -faults: %v, want an ErrFaultsInactive error", err)
	}
	if err := run(true, "", trace, false, 0, " ", 7, "", "", ""); err != nil {
		t.Errorf("blank -faults: %v", err)
	}
}

func TestPartitionsRequireTrace(t *testing.T) {
	if err := run(true, "", "", false, 2, "", 7, "", "", ""); err == nil {
		t.Error("-partitions without -trace accepted")
	}
}

// TestPartitionedTraceWorkload runs the quick tracing workloads on 2
// shard-host child processes: the cluster re-sessions between the two
// graphs each workload visits, and the traces gain wire_in_b/wire_out_b
// round fields from the metered links.
func TestPartitionedTraceWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	trace := filepath.Join(t.TempDir(), "out.jsonl")
	if err := run(true, "", trace, false, 2, "", 7, "", "", ""); err != nil {
		t.Fatalf("-trace -partitions 2: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"wire_in_b"`) {
		t.Error("partitioned trace has no wire_in_b round fields")
	}
	faulted := filepath.Join(t.TempDir(), "faulted.jsonl")
	if err := run(true, "", faulted, false, 2, "drop=0.2,dup=0.2,delay=2", 7, "", "", ""); err != nil {
		t.Fatalf("-trace -faults -partitions 2: %v", err)
	}
}

func TestMetricsWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("trace workload is slow")
	}
	// -metrics alone runs the tracing workload with the in-memory
	// collector and the stderr tables; with -trace the v3 records are
	// persisted too.
	if err := run(true, "", "", true, 0, "", 7, "", "", ""); err != nil {
		t.Fatalf("-metrics: %v", err)
	}
	trace := filepath.Join(t.TempDir(), "out.jsonl")
	if err := run(true, "", trace, true, 0, "", 7, "", "", ""); err != nil {
		t.Fatalf("-metrics -trace: %v", err)
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
