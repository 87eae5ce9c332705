package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestMain lets the test binary serve as the shard host the color-wire2
// workload spawns (wire.SelfSpawn re-executes the running binary).
func TestMain(m *testing.M) {
	wire.MaybeShardHost()
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the keys of BENCHMARK.json this test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || math.Abs(m.Bound-d.bound) > 1e-12 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSummarizeMatchesPythonQuartiles pins the quartile method to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	st := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := stats{Median: 5.5, Q1: 2.75, Q3: 8.25, Min: 1, Max: 10, N: 10}
	if st != want {
		t.Fatalf("summarize = %+v, want %+v", st, want)
	}
	if one := summarize([]float64{3}); one.Q1 != 3 || one.Q3 != 3 || one.N != 1 {
		t.Fatalf("one sample: %+v", one)
	}
}

func TestVerdict(t *testing.T) {
	runS := metricDef{name: "run_s", better: "lower", bound: 0.25}
	setupS := metricDef{name: "setup_s", better: "lower", bound: 0.25, slack: 0.05}
	steady := func(m float64) stats { return stats{Median: m, Q1: m, Q3: m, Min: m, Max: m, N: 10} }
	noisy := func(m float64) stats {
		return stats{Median: m, Q1: 0.8 * m, Q3: 1.2 * m, Min: 0.7 * m, Max: 1.3 * m, N: 10}
	}
	for _, tc := range []struct {
		name    string
		d       metricDef
		b, n    stats
		verdict string
	}{
		{"within bound", runS, steady(1), steady(1.2), "same"},
		{"past bound", runS, steady(1), steady(1.3), "worse"},
		{"faster", runS, steady(1), steady(0.7), "better"},
		{"noisy and overlapping", runS, noisy(1), noisy(1.1), "unresolved"},
		{"noisy but every run slower", runS, noisy(1), noisy(2), "worse"},
		{"noisy but every run faster", runS, noisy(1), noisy(0.5), "better"},
		{"set-up within slack", setupS, steady(0.006), steady(0.009), "same"},
		{"set-up past slack and bound", setupS, steady(0.1), steady(0.2), "worse"},
	} {
		if got := verdict(tc.d, tc.b, tc.n); got != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.verdict)
		}
	}
}

// quickPass runs every workload in quick mode, in this process, as a full
// pass's child does: end-to-end, then per-layer.
func quickPass(t *testing.T) *resultFile {
	t.Helper()
	dir := t.TempDir()
	var log bytes.Buffer
	rf := &resultFile{Host: thisHost(), Seed: 1, Seconds: 0.2, Quick: true, Workloads: map[string]*result{}}
	for i := range workloads {
		w := &workloads[i]
		cfg := runConfig{seed: 1, seconds: 0.2, endToEnd: true, layers: true, quick: true, dir: dir}
		res, err := runWorkload(w, cfg, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1+3*minRuns {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s",
				w.name, res.Correct, res.Attempted, res.Failed, log.String())
		}
		rf.Workloads[w.name] = res
		if _, err := os.Stat(filepath.Join(dir, w.name+".trace.jsonl")); err != nil {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
	}
	return rf
}

func TestQuickPass(t *testing.T) {
	rf := quickPass(t)
	bj := readBenchmarkJSON(t)

	t.Run("every metric printed with its unit", func(t *testing.T) {
		for _, w := range workloads {
			res := rf.Workloads[w.name]
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				var buf bytes.Buffer
				printMetrics(&buf, res, defs)
				line, err := json.Marshal(driverLine(res, defs))
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Metrics map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &parsed); err != nil {
					t.Fatal(err)
				}
				if len(parsed.Metrics) != len(defs) {
					t.Errorf("%s: result line has %d metrics, want %d", w.name, len(parsed.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := parsed.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("%s: result line lacks %s in %s: %+v", w.name, d.name, d.unit, m)
					}
					if !hasLine(buf.String(), w.name, d.name, d.unit) {
						t.Errorf("%s: no %q line with unit %s in\n%s", w.name, d.name, d.unit, buf.String())
					}
				}
			}
			for _, m := range bj.EndToEnd {
				if st := res.Metrics[m.Name]; st.Median <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, m.Name, st.Median)
				}
			}
		}
	})

	t.Run("compare passes against itself", func(t *testing.T) {
		path := writeTemp(t, rf)
		var out bytes.Buffer
		if code := compareMain([]string{path, path, "-baseline", ""}, &out, &out); code != 0 {
			t.Fatalf("compare against itself exited %d:\n%s", code, out.String())
		}
	})

	t.Run("compare fails without its pinned baseline", func(t *testing.T) {
		path := writeTemp(t, rf)
		missing := filepath.Join(t.TempDir(), "baseline.json")
		var out bytes.Buffer
		if code := compareMain([]string{path, path, "-baseline", missing}, &out, &out); code == 0 {
			t.Fatalf("compare with an unreadable baseline exited 0:\n%s", out.String())
		}
	})

	t.Run("compare fails on a slower run", func(t *testing.T) {
		// Quick runs are too short for a steady IQR; pin both sides' IQR
		// to zero so the verdict rests on the medians alone.
		base := cloneResult(t, rf)
		slow := cloneResult(t, rf)
		for _, r := range []*resultFile{base, slow} {
			st := r.Workloads["color-local"].Metrics["run_s"]
			st.Q1, st.Q3 = st.Median, st.Median
			r.Workloads["color-local"].Metrics["run_s"] = st
		}
		var factor float64
		for _, d := range endToEnd {
			if d.name == "run_s" {
				factor = 1 + 1.2*d.bound // 20% past the bound
			}
		}
		st := slow.Workloads["color-local"].Metrics["run_s"]
		for _, v := range []*float64{&st.Median, &st.Q1, &st.Q3, &st.Min, &st.Max} {
			*v *= factor
		}
		slow.Workloads["color-local"].Metrics["run_s"] = st
		var out bytes.Buffer
		code := compareMain([]string{writeTemp(t, base), writeTemp(t, slow), "-baseline", ""}, &out, &out)
		if code != 1 || !strings.Contains(out.String(), "worse") {
			t.Fatalf("compare of run_s ×%.2f exited %d:\n%s", factor, code, out.String())
		}
	})

	t.Run("compare fails when a deterministic count moves", func(t *testing.T) {
		moved := cloneResult(t, rf)
		st := moved.Workloads["color-local"].Metrics["flood.messages"]
		st.Median++
		moved.Workloads["color-local"].Metrics["flood.messages"] = st
		var out bytes.Buffer
		code := compareMain([]string{writeTemp(t, rf), writeTemp(t, moved), "-baseline", ""}, &out, &out)
		if code != 1 || !strings.Contains(out.String(), "changed") {
			t.Fatalf("compare with one more flood message exited %d:\n%s", code, out.String())
		}
	})

	t.Run("compare fails when runs start failing", func(t *testing.T) {
		failing := cloneResult(t, rf)
		failing.Workloads["central"].Failed = 1
		var out bytes.Buffer
		if code := compareMain([]string{writeTemp(t, rf), writeTemp(t, failing), "-baseline", ""}, &out, &out); code != 1 {
			t.Fatalf("compare with a failed run exited %d:\n%s", code, out.String())
		}
	})
}

// TestLayerAttribution checks one traced run of every workload: the layer
// spans taken from the trace fit inside the traced run's wall time, and
// each layer shows up exactly on the workloads that run it.
func TestLayerAttribution(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	for i := range workloads {
		w := &workloads[i]
		in, _, err := setUp(w, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.prepareChecks(); err != nil {
			t.Fatal(err)
		}
		vals, err := in.tracedRun(runConfig{seed: 1, quick: true, dir: dir}, &tally{}, &log)
		if cerr := in.close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil || vals == nil {
			t.Fatalf("%s: traced run: %v\n%s", w.name, err, log.String())
		}
		// peel.wall_s is a standalone call after the run, not a span in it.
		spans := 0.0
		for _, name := range layerWalls {
			if name != "peel.wall_s" {
				spans += vals[name]
			}
		}
		if spans > vals["trace.run_s"] {
			t.Errorf("%s: layer spans add up to %v s, more than the traced run's %v s", w.name, spans, vals["trace.run_s"])
		}
		distributed := w.pipeline != central
		colors := w.pipeline != misDist
		for name, want := range map[string]bool{
			"flood.wall_s":          distributed,
			"decide.wall_s":         distributed,
			"peel.wall_s":           true,
			"color_paths.wall_s":    colors,
			"correction.wall_s":     colors && distributed,
			"mis_components.wall_s": w.pipeline != colorDist,
			"wire.in_mb":            w.parts > 0,
		} {
			if got := vals[name] > 0; got != want {
				t.Errorf("%s: %s = %v, want nonzero %v", w.name, name, vals[name], want)
			}
		}
	}
}

func TestBaselineCoversEveryMetric(t *testing.T) {
	var rf resultFile
	if err := readJSON("baseline.json", &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Quick {
		t.Error("baseline.json was recorded in quick mode")
	}
	for _, w := range workloads {
		res := rf.Workloads[w.name]
		if res == nil {
			t.Fatalf("baseline.json lacks workload %s", w.name)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("baseline.json %s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("baseline.json %s lacks %s", w.name, d.name)
				}
			}
		}
	}
}

func hasLine(out, workload, metric, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload && f[1] == metric && f[3] == unit {
			return true
		}
	}
	return false
}

func writeTemp(t *testing.T, rf *resultFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("result-%p.json", rf))
	if err := writeJSON(path, rf); err != nil {
		t.Fatal(err)
	}
	return path
}

func cloneResult(t *testing.T, rf *resultFile) *resultFile {
	t.Helper()
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	var out resultFile
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}
