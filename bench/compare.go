package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// compareMain implements `bench compare BASE NEW [-baseline FILE]`: it
// compares two full-pass results and then NEW against the pinned
// baseline, so a slow drift cannot pass one sub-threshold step at a
// time. It exits 1 when any end-to-end metric is worse, a deterministic
// count changed, or the failed share rose, and 2 when an input, the
// baseline included, cannot be read.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", filepath.Join("bench", "baseline.json"), "pinned baseline NEW is also compared against (relative to the working directory); empty skips it")
	// Flags may come before, between or after the two files.
	var files []string
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		files = append(files, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: usage: bench compare BASE NEW [-baseline FILE]")
		return 2
	}
	var base, cur resultFile
	for i, rf := range []*resultFile{&base, &cur} {
		if err := readJSON(files[i], rf); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "== %s -> %s\n", files[0], files[1])
	ok := compareResults(stdout, stderr, &base, &cur)
	if *baseline != "" {
		// A baseline that cannot be read fails the gate rather than
		// silently dropping the drift check; -baseline "" skips it.
		var pinned resultFile
		if err := readJSON(*baseline, &pinned); err != nil {
			fmt.Fprintln(stderr, "bench: pinned baseline:", err)
			return 2
		}
		fmt.Fprintf(stdout, "\n== baseline %s -> %s\n", *baseline, files[1])
		ok = compareResults(stdout, stderr, &pinned, &cur) && ok
	}
	if !ok {
		fmt.Fprintln(stdout, "\nFAIL")
		return 1
	}
	fmt.Fprintln(stdout, "\nPASS")
	return 0
}

// compareResults prints one row per workload and end-to-end metric, and
// one per deterministic count that changed. It reports whether nothing
// got worse.
func compareResults(w, warn io.Writer, base, cur *resultFile) bool {
	if base.Host != cur.Host {
		fmt.Fprintf(warn, "bench: warning: results come from different hosts:\n  base %+v\n  new  %+v\n", base.Host, cur.Host)
	}
	sameInputs := base.Seed == cur.Seed && base.Quick == cur.Quick
	if !sameInputs {
		fmt.Fprintf(warn, "bench: warning: inputs differ (seed %d/%d, quick %v/%v); deterministic counts are not compared\n",
			base.Seed, cur.Seed, base.Quick, cur.Quick)
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-24s %14s %7s %14s %7s %8s  %s\n", "workload", "metric", "base", "iqr", "new", "iqr", "delta", "verdict")
	for _, wl := range workloads {
		b, n := base.Workloads[wl.name], cur.Workloads[wl.name]
		if b == nil || n == nil {
			if b != nil || n != nil {
				fmt.Fprintf(w, "%-12s missing from one result\n", wl.name)
				ok = false
			}
			continue
		}
		if ff := failedFrac(n); ff > failedFrac(b) {
			fmt.Fprintf(w, "%-12s %-24s %14g %7s %14g %7s %8s  worse\n", wl.name, "failed_frac", failedFrac(b), "", ff, "", "")
			ok = false
		}
		for _, d := range endToEnd {
			v := verdict(d, b.Metrics[d.name], n.Metrics[d.name])
			printRow(w, wl.name, d, b.Metrics[d.name], n.Metrics[d.name], v)
			ok = ok && v != "worse"
		}
		if !sameInputs {
			continue
		}
		for _, d := range perLayer {
			bs, bok := b.Metrics[d.name]
			ns, nok := n.Metrics[d.name]
			if d.exact && bok && nok && !sameCount(bs.Median, ns.Median) {
				printRow(w, wl.name, d, bs, ns, "changed")
				ok = false
			}
		}
	}
	return ok
}

func failedFrac(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// verdict judges one end-to-end metric: "same" within its absolute slack;
// otherwise worse/better/same by its bound, or "unresolved" when either
// side's IQR exceeds the bound and the runs overlap.
func verdict(d metricDef, b, n stats) string {
	if math.Abs(n.Median-b.Median) <= d.slack {
		return "same"
	}
	change := relChange(b.Median, n.Median)
	if d.better == "higher" {
		change = -change
	}
	if b.relIQR() > d.bound || n.relIQR() > d.bound {
		lowerBetter := d.better == "lower"
		switch {
		case (lowerBetter && n.Max < b.Min) || (!lowerBetter && n.Min > b.Max):
			return "better"
		case change > d.bound && ((lowerBetter && n.Min > b.Max) || (!lowerBetter && n.Max < b.Min)):
			return "worse"
		default:
			return "unresolved"
		}
	}
	switch {
	case change > d.bound:
		return "worse"
	case change < -d.bound:
		return "better"
	default:
		return "same"
	}
}

func relChange(base, cur float64) float64 {
	if m := math.Abs(base); m > 0 {
		return (cur - base) / m
	}
	return 0
}

func printRow(w io.Writer, workload string, d metricDef, b, n stats, verdict string) {
	fmt.Fprintf(w, "%-12s %-24s %14.6g %6.1f%% %14.6g %6.1f%% %+7.1f%%  %s\n",
		workload, d.name, b.Median, 100*b.relIQR(), n.Median, 100*n.relIQR(), 100*relChange(b.Median, n.Median), verdict)
}
