// Command bench is the repository benchmark. It times, from outside and
// through the packages' public functions only, the distributed (1+ε)
// coloring and MIS pipelines for chordal graphs — on the in-process LOCAL
// engine and on two shard-host processes — and the centralized
// algorithms, checks every output, and attributes traced runs to the
// pipeline's layers.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh                              # full pass over every workload
//	bash bench/run.sh -workload color-local -seed 3 -seconds 10 [-trace 0|1]
//	bash bench/run.sh compare BASE NEW [-baseline bench/baseline.json]
//
// One workload prints its metrics as "workload metric value unit" lines
// and, last, one JSON object {correct, attempted, failed, metrics}:
// -trace 0 measures and reports the end-to-end metrics, -trace 1 the
// per-layer ones, and no -trace both. A full pass runs every workload in a
// fresh child process and writes bench-out/result.json for compare. See
// README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/wire"
)

const outDir = "bench-out"

func main() {
	// A shard host is this binary re-executed by wire.SelfSpawn.
	wire.MaybeShardHost()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload; empty runs a full pass over all of them")
	seed := fs.Int64("seed", 1, "seed of every generator and relabelling")
	secs := fs.Float64("seconds", 20, "how long each kind of run is measured, after set-up and warm-up")
	trace := fs.String("trace", "", "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs; empty: both")
	quick := fs.Bool("quick", false, "tiny graphs, for a smoke test")
	out := fs.String("out", "", "also write the detailed result (quartiles, sample counts) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *secs, quick: *quick, dir: outDir}
	switch *trace {
	case "0":
		cfg.endToEnd = true
	case "1":
		cfg.layers = true
	case "":
		cfg.endToEnd, cfg.layers = true, true
	}
	if fs.NArg() > 0 || !(cfg.endToEnd || cfg.layers) || *secs <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload NAME [-trace 0|1]] [-seed N] [-seconds S] [-quick] [-out FILE]  |  bench compare BASE NEW")
		return 2
	}
	if *name == "" {
		return fullPass(*seed, *secs, *quick, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	defs := cfg.defs()
	printMetrics(stdout, res, defs)
	if err := json.NewEncoder(stdout).Encode(driverLine(res, defs)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// driverLine is the last output line of a one-workload invocation: the
// medians only, one {value, unit} per metric of the mode.
func driverLine(res *result, defs []metricDef) any {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{Value: res.Metrics[d.name].Median, Unit: d.unit}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}

// printMetrics prints one "workload metric value unit" line per metric,
// in table order, so two passes diff cleanly apart from the numbers.
func printMetrics(w io.Writer, res *result, defs []metricDef) {
	for _, d := range defs {
		if st, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-12s %-24s %14s %s\n", res.Workload, d.name, formatValue(st.Median), d.unit)
		}
	}
}

// formatValue prints counts in full and measurements to six digits.
func formatValue(v float64) string {
	if math.Abs(v) < 1e15 && math.Abs(v-math.Round(v)) < 1e-9 {
		return strconv.FormatInt(int64(math.Round(v)), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// resultFile is a full pass: the host it ran on and every workload's
// merged end-to-end and per-layer result.
type resultFile struct {
	Host      host               `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Quick     bool               `json:"quick"`
	Workloads map[string]*result `json:"workloads"`
}

// host identifies the machine a result was measured on; compare warns
// when two results come from different hosts.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func thisHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			h.CPUModel = strings.TrimSpace(val)
			break
		}
	}
	return h
}

// fullPass runs every workload, one after another, each in a fresh child
// process that measures both its end-to-end and its per-layer metrics, so
// peak RSS and heap state never leak between workloads. It prints every
// metric and writes bench-out/result.json.
func fullPass(seed int64, secs float64, quick bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rf := resultFile{Host: thisHost(), Seed: seed, Seconds: secs, Quick: quick, Workloads: map[string]*result{}}
	code := 0
	for _, w := range workloads {
		path := filepath.Join(outDir, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-out", path}
		if quick {
			args = append(args, "-quick")
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The child's own metric lines are dropped: they are printed
		// below, from its result file, in the same order.
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		res := &result{Workload: w.name, Seed: seed, Metrics: map[string]stats{}}
		if err := readJSON(path, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
		rf.Workloads[w.name] = res
		printMetrics(stdout, res, endToEnd)
		printMetrics(stdout, res, perLayer)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, rf); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stderr, "bench: wrote", path)
	return code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
