package obs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// measurementFields are the JSON keys of the Event fields that
// describe the machine, the schedule or the process layout, or that
// only kernel, phase and mem records carry, plus the schema version.
// Every other field is deterministic, so a field added to Event without
// a place in this list or in deterministicFields fails
// TestDiffDeterministicNamesField.
var measurementFields = map[string]bool{
	"v": true, "shards": true, "wire_in_b": true, "wire_out_b": true,
	"wall_ns": true, "busy_ns": true, "t_ns": true,
	"kernel": true, "items": true, "shard_start_ns": true,
	"runs": true, "rounds": true, "p50_ns": true, "p99_ns": true,
	"heap_alloc_b": true, "heap_objects": true, "total_alloc_b": true, "num_gc": true, "pause_total_ns": true,
}

// diffBase is a small trace with one record of each deterministic kind.
func diffBase() []Event {
	return []Event{
		{V: SchemaVersion, Kind: KindRound, Phase: "p", Run: 0, Round: 0, Nodes: 4, Messages: 10, Volume: 12, Done: 0, MaxInbox: 3},
		{V: SchemaVersion, Kind: KindRound, Phase: "p", Run: 0, Round: 1, Nodes: 4, Messages: 5, Volume: 5, Done: 4, MaxInbox: 2,
			Dropped: 1, Duplicated: 2, DeadLetters: 1, Stall: 3, Crashed: []graph.ID{7}},
		{V: SchemaVersion, Kind: KindLayer, Phase: "p", Round: 1, PendantPaths: 2, InternalPaths: 1, NodesPeeled: 3, ForestCliques: 2, Remaining: 1},
	}
}

// eventFields returns the JSON key of every field of Event, by index.
func eventFields() []string {
	t := reflect.TypeOf(Event{})
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

// bumpField changes field i of ev: numbers grow by one, strings and
// slices by one element, and a round record's kind becomes "layer", the
// other deterministic kind.
func bumpField(t *testing.T, ev *Event, i int) {
	t.Helper()
	f := reflect.ValueOf(ev).Elem().Field(i)
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.String:
		if f.String() == KindRound {
			f.SetString(KindLayer)
		} else {
			f.SetString(f.String() + "x")
		}
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.New(f.Type().Elem()).Elem()))
	default:
		t.Fatalf("no change for Event field %d of kind %s", i, f.Kind())
	}
}

// TestDiffDeterministicIgnoresMeasurements: two streams that differ
// only in what describes the machine or the process layout — wall and
// busy times, t_ns, shard counts and starts, wire bytes — or in kernel,
// phase and mem records, do not diverge.
func TestDiffDeterministicIgnoresMeasurements(t *testing.T) {
	noisy := diffBase()
	for i, key := range eventFields() {
		if measurementFields[key] {
			bumpField(t, &noisy[1], i)
		}
	}
	noisy = append([]Event{
		{V: SchemaVersion, Kind: KindKernel, Phase: "p", Kernel: "decide", Shards: 2, BusyNS: []int64{9, 8}, Items: []int64{4, 3}, ShardStartNS: []int64{1, 2}, Nodes: 7},
		{V: SchemaVersion, Kind: KindPhase, Phase: "q", Runs: 1, Rounds: 2, Messages: 15, WallNS: 1234, P50NS: 3, P99NS: 9},
	}, noisy...)
	noisy = append(noisy, Event{V: SchemaVersion, Kind: KindMem, Phase: "p", HeapAllocB: 1 << 20, NumGC: 3})
	if err := DiffDeterministic(diffBase(), noisy); err != nil {
		t.Errorf("measurement noise flagged as divergence: %v", err)
	}
	if got, want := len(DeterministicRecords(noisy)), len(diffBase()); got != want {
		t.Errorf("%d deterministic records, want %d", got, want)
	}
}

// TestDiffDeterministicNamesField: changing any one deterministic field
// of one record diverges, and the error names that field; a stream
// whose last record became a measurement record reports the counts.
func TestDiffDeterministicNamesField(t *testing.T) {
	for i, key := range eventFields() {
		if measurementFields[key] {
			continue
		}
		mut := diffBase()
		bumpField(t, &mut[1], i)
		err := DiffDeterministic(diffBase(), mut)
		if err == nil {
			t.Errorf("%s changed: no divergence", key)
			continue
		}
		if !strings.Contains(err.Error(), "\n  "+key+": ") {
			t.Errorf("%s changed: error does not name the field:\n%v", key, err)
		}
	}
	mut := diffBase()
	mut[2].Kind = KindKernel
	if err := DiffDeterministic(diffBase(), mut); err == nil || !strings.Contains(err.Error(), "record counts differ: 3 vs 2") {
		t.Errorf("dropped layer record: %v", err)
	}
}
