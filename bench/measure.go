package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/peel"
)

const (
	// setupReps set-ups per invocation; setup_s is their median.
	setupReps = 21
	// minRuns measured runs per invocation even when one run outlasts
	// the time budget.
	minRuns = 3
)

// perInvocation are the per-layer metrics measured once per set-up or
// per invocation rather than per traced run.
var perInvocation = map[string]bool{
	"setup.gen_s": true, "setup.snapshot_s": true, "setup.cluster_s": true,
	"trace.overhead_frac": true,
}

type runConfig struct {
	seed    int64
	seconds float64
	// endToEnd measures untraced runs for seconds; layers then measures
	// alternating untraced and traced runs for seconds.
	endToEnd, layers bool
	quick            bool
	dir              string // traced runs write <workload>.trace.jsonl here
}

// defs are the metrics the configuration measures.
func (cfg runConfig) defs() []metricDef {
	var defs []metricDef
	if cfg.endToEnd {
		defs = append(defs, endToEnd...)
	}
	if cfg.layers {
		defs = append(defs, perLayer...)
	}
	return defs
}

// result is one invocation's outcome: every metric of its mode with
// quartiles and sample count, plus the run tally.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]stats `json:"metrics"`
}

// runRecord identifies one successful run's output, so every run can be
// checked against the reference once it is known.
type runRecord struct {
	id     uint64
	counts map[string]float64 // exact per-layer counts; traced runs only
}

// tally counts runs and keeps their identities.
type tally struct {
	attempted, failed int
	runs              []runRecord
}

// sample is one pipeline run as measured from outside.
type sample struct {
	out   *outcome
	wall  time.Duration
	alloc uint64 // bytes this process allocated during the run
	gcs   uint32
	pause time.Duration
}

// runWorkload sets the workload up once, warms it up, and measures it:
// untraced runs for the end-to-end metrics, then alternating untraced and
// traced runs for the per-layer metrics, each for cfg.seconds. Every run's
// output is checked. An error means the benchmark itself could not run; a
// failed check is counted in the result instead.
func runWorkload(w *workload, cfg runConfig, log io.Writer) (*result, error) {
	rec := recorder{}
	in, err := setUpRepeated(w, cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer in.close()
	if err := in.prepareChecks(); err != nil {
		return nil, fmt.Errorf("%s: computing optima: %w", w.name, err)
	}
	if cfg.layers {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	t := &tally{}
	_, warm := in.attempt(nil, t, log)
	if warm && cfg.endToEnd {
		in.measureEndToEnd(time.Now().Add(window), t, rec, log)
	}
	// Traced runs hold their events in memory; they must not count
	// towards this process's peak RSS.
	selfRSS := peakRSSMB(syscall.RUSAGE_SELF)
	if warm && cfg.layers {
		if err := in.measureLayers(cfg, time.Now().Add(window), t, rec, log); err != nil {
			return nil, err
		}
	}
	// Shard hosts are reaped before their peak RSS is read: getrusage only
	// reports children that have exited and been waited for.
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("%s: stopping shard hosts: %w", w.name, err)
	}
	rec.add("peak_rss_mb", max(selfRSS, peakRSSMB(syscall.RUSAGE_CHILDREN)))
	if err := in.checkIdentity(t, log); err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Seed: cfg.seed, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]stats{}}
	res.Correct = t.failed == 0
	for _, d := range cfg.defs() {
		res.Metrics[d.name] = summarize(rec[d.name])
	}
	return res, nil
}

func setUpRepeated(w *workload, cfg runConfig, rec recorder) (*instance, error) {
	var in *instance
	for i := 0; i < setupReps; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var t setupTimes
		var err error
		if in, t, err = setUp(w, cfg.seed, cfg.quick); err != nil {
			return nil, err
		}
		rec.add("setup_s", (t.gen + t.snapshot + t.cluster).Seconds())
		rec.add("setup.gen_s", t.gen.Seconds())
		rec.add("setup.snapshot_s", t.snapshot.Seconds())
		rec.add("setup.cluster_s", t.cluster.Seconds())
	}
	return in, nil
}

func (in *instance) measureEndToEnd(deadline time.Time, t *tally, rec recorder, log io.Writer) {
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		s, ok := in.attempt(nil, t, log)
		if !ok {
			return
		}
		rec.add("run_s", s.wall.Seconds())
		rec.add("alloc_mb", mb(s.alloc))
	}
}

// measureLayers alternates an untraced and a traced run, so the tracing
// overhead is measured under the same conditions as the layers.
func (in *instance) measureLayers(cfg runConfig, deadline time.Time, t *tally, rec recorder, log io.Writer) error {
	var untraced, traced []float64
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		s, ok := in.attempt(nil, t, log)
		if !ok {
			break
		}
		untraced = append(untraced, s.wall.Seconds())
		vals, err := in.tracedRun(cfg, t, log)
		if err != nil {
			return err
		}
		if vals == nil {
			break
		}
		traced = append(traced, vals["trace.run_s"])
		for _, d := range perLayer {
			if !perInvocation[d.name] {
				rec.add(d.name, vals[d.name]) // 0 for a layer the run never entered
			}
		}
	}
	if len(traced) > 0 {
		rec.add("trace.overhead_frac", summarize(traced).Median/summarize(untraced).Median-1)
	}
	return nil
}

// measure runs the pipeline once from a collected heap.
func (in *instance) measure(o dist.RoundObserver) (sample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := in.run(o)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, err
	}
	return sample{
		out:   out,
		wall:  wall,
		alloc: after.TotalAlloc - before.TotalAlloc,
		gcs:   after.NumGC - before.NumGC,
		pause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, nil
}

// attempt measures one run and checks its output, counting it in t.
func (in *instance) attempt(o dist.RoundObserver, t *tally, log io.Writer) (sample, bool) {
	t.attempted++
	s, err := in.measure(o)
	if err == nil {
		err = in.check(s.out)
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(log, "%s: run %d failed: %v\n", in.w.name, t.attempted, err)
		return s, false
	}
	t.runs = append(t.runs, runRecord{id: s.out.digest()})
	return s, true
}

// tracedRun runs the pipeline under an obs.Collector, writes its trace,
// times the peeling layer as a standalone call, and returns the run's
// per-layer values. It returns nil values when the run failed.
func (in *instance) tracedRun(cfg runConfig, t *tally, log io.Writer) (map[string]float64, error) {
	f, err := os.Create(filepath.Join(cfg.dir, in.w.name+".trace.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	c := obs.NewCollector()
	c.SetMemStats(true)
	c.SetTrace(bw)
	in0, out0 := in.wireBytes()
	s, ok := in.attempt(c, t, log)
	in1, out1 := in.wireBytes()
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	if !ok {
		return nil, nil
	}
	vals := in.layerValues(c.Events(), s)
	start := time.Now()
	layers := 0
	for _, opts := range in.w.peelOptions() {
		res, err := peel.Run(in.g, opts)
		if err != nil {
			return nil, fmt.Errorf("standalone peel: %w", err)
		}
		layers += len(res.Layers)
	}
	vals["peel.wall_s"] = time.Since(start).Seconds()
	vals["peel.layers"] = float64(layers)
	vals["wire.in_mb"] = mb(uint64(in1 - in0))
	vals["wire.out_mb"] = mb(uint64(out1 - out0))
	if rounds := vals["flood.rounds"] + vals["correction.rounds"]; rounds > 0 {
		vals["wire.bytes_per_round"] = float64(in1-in0+out1-out0) / rounds
	}
	sum := 0.0
	for _, name := range layerWalls {
		sum += vals[name]
	}
	vals["residual.wall_s"] = vals["trace.run_s"] - sum
	t.runs[len(t.runs)-1].counts = exactCounts(vals)
	return vals, nil
}

// layerValues reads one traced run's per-layer values from its events.
func (in *instance) layerValues(events []obs.Event, s sample) map[string]float64 {
	vals := layerMetrics(events)
	vals["gc.count"] = float64(s.gcs)
	vals["gc.pause_ms"] = float64(s.pause) / float64(time.Millisecond)
	vals["trace.run_s"] = s.wall.Seconds()
	vals["local_rounds"] = float64(s.out.rounds)
	vals["color_ratio"], vals["mis_ratio"] = in.ratios(s.out)
	return vals
}

// wireBytes sums the bytes moved over the shard links so far (0 on
// LOCAL workloads).
func (in *instance) wireBytes() (rx, tx int64) {
	if in.part == nil {
		return 0, 0
	}
	for _, l := range in.part.Links {
		if m, ok := l.(dist.WireMeter); ok {
			i, o := m.WireBytes()
			rx += i
			tx += o
		}
	}
	return rx, tx
}

func exactCounts(vals map[string]float64) map[string]float64 {
	counts := map[string]float64{}
	for _, d := range perLayer {
		if v, ok := vals[d.name]; ok && d.exact {
			counts[d.name] = v
		}
	}
	return counts
}

// checkIdentity holds every run to a reference output: a partitioned
// workload to a LOCAL run on the same graph (the runtimes are
// byte-identical by construction), any other workload to its warm-up
// run. A run whose output or deterministic counts differ is failed.
func (in *instance) checkIdentity(t *tally, log io.Writer) error {
	if len(t.runs) == 0 {
		return nil
	}
	ref := t.runs[0]
	for _, r := range t.runs {
		if r.counts != nil {
			ref.counts = r.counts
			break
		}
	}
	if in.w.parts > 0 {
		// The shard hosts are gone, so run takes the LOCAL engine.
		c := obs.NewCollector()
		s, err := in.measure(c)
		if err == nil {
			err = in.check(s.out)
		}
		if err != nil {
			return fmt.Errorf("%s: LOCAL reference run: %w", in.w.name, err)
		}
		if err := c.Finish(); err != nil {
			return err
		}
		ref = runRecord{id: s.out.digest(), counts: exactCounts(in.layerValues(c.Events(), s))}
	}
	for i, r := range t.runs {
		if why := r.differs(ref); why != "" {
			t.failed++
			fmt.Fprintf(log, "%s: run %d differs from the reference: %s\n", in.w.name, i+1, why)
		}
	}
	return nil
}

func (r runRecord) differs(ref runRecord) string {
	if r.id != ref.id {
		return "output digest"
	}
	if r.counts == nil || ref.counts == nil {
		return ""
	}
	for _, d := range perLayer {
		a, okA := r.counts[d.name]
		b, okB := ref.counts[d.name]
		if okA && okB && !sameCount(a, b) {
			return fmt.Sprintf("%s %v, reference %v", d.name, a, b)
		}
	}
	return ""
}

// peakRSSMB is the peak resident set of this process (RUSAGE_SELF) or of
// its largest reaped child, a shard host (RUSAGE_CHILDREN).
func peakRSSMB(who int) float64 {
	var ru syscall.Rusage
	// getrusage fails only on an invalid "who" or buffer, neither possible here.
	_ = syscall.Getrusage(who, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
