// Command tracestat analyzes the JSONL traces the obs Collector writes
// (schema v1–v3): offline aggregate tables, trace validation for CI,
// structural diffing of two traces, and Chrome trace-event export.
//
// Usage:
//
//	tracestat report [trace.jsonl]   per-phase and per-kernel tables
//	tracestat check  [trace.jsonl…]  validate structure; exit 1 on problems
//	tracestat diff   A B             first diverging deterministic record
//	tracestat chrome [trace.jsonl]   chrome://tracing JSON to stdout
//
// report and chrome read stdin when no file is given. diff compares only
// the deterministic fields of round/layer records, as
// obs.DiffDeterministic defines them — timings, shard schedules, wire
// bytes, and the v3 kernel/phase/mem measurement records are ignored —
// so two same-seed runs diff clean regardless of machine, worker count,
// process layout, or whether -metrics was on.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	exit := 0
	switch cmd {
	case "report":
		err = withInput(args, func(r io.Reader, name string) error {
			events, rerr := readEvents(r)
			if rerr != nil {
				return fmt.Errorf("%s: %w", name, rerr)
			}
			return obs.WriteReport(os.Stdout, obs.Summarize(events))
		})
	case "check":
		exit, err = runCheck(args, os.Stdout)
	case "diff":
		if len(args) != 2 {
			err = fmt.Errorf("diff needs exactly two trace files")
			break
		}
		exit, err = runDiff(args[0], args[1], os.Stdout)
	case "chrome":
		err = withInput(args, func(r io.Reader, name string) error {
			events, rerr := readEvents(r)
			if rerr != nil {
				return fmt.Errorf("%s: %w", name, rerr)
			}
			return writeChrome(os.Stdout, events)
		})
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tracestat: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat %s: %v\n", cmd, err)
		os.Exit(2)
	}
	os.Exit(exit)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tracestat report [trace.jsonl]   per-phase and per-kernel tables
  tracestat check  [trace.jsonl...]  validate structure; exit 1 on problems
  tracestat diff   A B             first diverging deterministic record
  tracestat chrome [trace.jsonl]   chrome://tracing JSON to stdout
`)
}

// withInput runs fn on the named file, or stdin when args is empty.
func withInput(args []string, fn func(r io.Reader, name string) error) error {
	if len(args) == 0 {
		return fn(os.Stdin, "stdin")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f, args[0])
}

// readEvents decodes a JSONL trace. A parse failure reports its line.
func readEvents(r io.Reader) ([]obs.Event, error) {
	var events []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// runCheck validates each named trace (stdin when none), printing one
// line per problem. Exit status 1 when any trace has problems.
func runCheck(args []string, w io.Writer) (int, error) {
	if len(args) == 0 {
		args = []string{"-"}
	}
	exit := 0
	for _, name := range args {
		var r io.Reader = os.Stdin
		if name != "-" {
			f, err := os.Open(name)
			if err != nil {
				return 2, err
			}
			defer f.Close()
			r = f
		}
		problems := checkTrace(r)
		if len(problems) == 0 {
			fmt.Fprintf(w, "%s: ok\n", name)
			continue
		}
		exit = 1
		for _, p := range problems {
			fmt.Fprintf(w, "%s: %s\n", name, p)
		}
	}
	return exit, nil
}

// checkTrace runs the satellite's validation pass over one trace:
// every line parses, the schema version is consistent across records,
// kinds are known, and round numbers are strictly monotone within each
// (phase, run) for round records and each phase for layer records.
func checkTrace(r io.Reader) []string {
	var problems []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line, records := 0, 0
	schemaV := 0
	type key struct {
		kind  string
		phase string
		run   int
	}
	lastRound := make(map[key]int)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			problems = append(problems, fmt.Sprintf("line %d: empty line", line))
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			problems = append(problems, fmt.Sprintf("line %d: not valid JSON: %v", line, err))
			continue
		}
		records++
		if ev.V < 1 || ev.V > obs.SchemaVersion {
			problems = append(problems, fmt.Sprintf("line %d: schema v=%d outside [1,%d]", line, ev.V, obs.SchemaVersion))
		} else if schemaV == 0 {
			schemaV = ev.V
		} else if ev.V != schemaV {
			problems = append(problems, fmt.Sprintf("line %d: schema v=%d, but the trace opened with v=%d", line, ev.V, schemaV))
		}
		switch ev.Kind {
		case obs.KindRound, obs.KindLayer:
			k := key{ev.Kind, ev.Phase, ev.Run}
			if prev, ok := lastRound[k]; ok && ev.Round <= prev {
				problems = append(problems, fmt.Sprintf(
					"line %d: %s round %d not monotone (phase %q run %d, previous %d)",
					line, ev.Kind, ev.Round, ev.Phase, ev.Run, prev))
			}
			lastRound[k] = ev.Round
		case obs.KindKernel:
			if ev.Kernel == "" {
				problems = append(problems, fmt.Sprintf("line %d: kernel record without a kernel name", line))
			}
			if len(ev.BusyNS) != ev.Shards || len(ev.Items) != ev.Shards {
				problems = append(problems, fmt.Sprintf(
					"line %d: kernel %q shards=%d but busy/items have %d/%d entries",
					line, ev.Kernel, ev.Shards, len(ev.BusyNS), len(ev.Items)))
			}
		case obs.KindPhase, obs.KindMem:
			// No structural invariants beyond parsing.
		default:
			problems = append(problems, fmt.Sprintf("line %d: unknown kind %q", line, ev.Kind))
		}
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("read: %v", err))
	}
	if records == 0 && len(problems) == 0 {
		problems = append(problems, "trace is empty")
	}
	return problems
}
