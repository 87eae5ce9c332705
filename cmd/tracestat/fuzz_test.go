package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fuzzSeedLines are records from real `experiments -quick -trace` runs
// (plain, -metrics, faulted and -partitions 2): one of each kind, plus
// fault counters and wire bytes.
var fuzzSeedLines = []string{
	`{"v":3,"kind":"round","phase":"prune-i01","run":0,"round":0,"nodes":23,"shards":2,"messages":70,"volume":70,"done":0,"max_inbox":5,"wall_ns":65599,"busy_ns":[3374,6206],"t_ns":227167}`,
	`{"v":3,"kind":"phase","phase":"prune-i01","run":1,"round":0,"messages":663,"volume":1610,"done":0,"max_inbox":0,"wall_ns":1158316,"t_ns":190073,"runs":1,"rounds":41,"p50_ns":3676,"p99_ns":70198}`,
	`{"v":3,"kind":"mem","phase":"prune-i01","run":0,"round":0,"messages":0,"volume":0,"done":0,"max_inbox":0,"t_ns":1767720,"heap_alloc_b":366064,"heap_objects":3448,"total_alloc_b":366064}`,
	`{"v":3,"kind":"kernel","phase":"decide-i01","run":1,"round":0,"nodes":23,"shards":2,"messages":0,"volume":0,"done":0,"max_inbox":0,"wall_ns":118327,"busy_ns":[48083,62717],"t_ns":1784843,"kernel":"decide","items":[12,11],"shard_start_ns":[1853693,1789998]}`,
	`{"v":3,"kind":"layer","phase":"decide-i02","run":4,"round":1,"messages":0,"volume":0,"done":0,"max_inbox":0,"pendant_paths":4,"nodes_peeled":11,"forest_cliques":15,"remaining":12}`,
	`{"v":3,"kind":"round","phase":"retrans-n300","run":5,"round":0,"nodes":300,"shards":2,"messages":1268,"volume":1268,"done":0,"max_inbox":96,"dropped":249,"duplicated":215,"stall":2,"wall_ns":821776,"busy_ns":[470879,224612],"t_ns":5196780}`,
	`{"v":3,"kind":"round","phase":"prune-i01","run":0,"round":0,"nodes":23,"shards":2,"messages":70,"volume":70,"done":0,"max_inbox":5,"wire_in_b":88,"wire_out_b":64,"wall_ns":204725,"busy_ns":[0,0],"t_ns":5613821}`,
}

// FuzzReadEvents feeds arbitrary bytes to the JSONL reader and the
// trace checker, neither of which may panic. A trace the reader accepts
// must also go through every consumer — the report, the Chrome export
// and a diff against itself — without panicking, and must not diverge
// from itself.
func FuzzReadEvents(f *testing.F) {
	f.Add([]byte(strings.Join(fuzzSeedLines, "\n") + "\n"))
	for _, line := range fuzzSeedLines {
		f.Add([]byte(line))
	}
	// A kernel record whose shard count disagrees with its busy/items
	// lengths: check flags it, the reader accepts it.
	f.Add([]byte(`{"v":3,"kind":"kernel","phase":"decide-i01","run":1,"nodes":23,"shards":4,"wall_ns":118327,"busy_ns":[48083,62717],"kernel":"decide","items":[12]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTrace(bytes.NewReader(data))
		events, err := readEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := obs.WriteReport(io.Discard, obs.Summarize(events)); err != nil {
			t.Fatalf("report: %v", err)
		}
		if err := writeChrome(io.Discard, events); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		if diverged, desc := diffTraces(events, events); diverged {
			t.Fatalf("trace diverges from itself: %s", desc)
		}
	})
}
