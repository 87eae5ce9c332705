// Package exp is the experiment harness: one function per experiment in
// DESIGN.md's per-experiment index (E1–E21). Each returns a printable
// table; cmd/experiments runs them all and regenerates the data recorded
// in EXPERIMENTS.md, and bench_test.go exposes one benchmark per table.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table in a GitHub-markdown-compatible layout.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n### %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n%s\n", n)
	}
}

// Experiment is one experiment table: its ID and the function that
// builds it. Expensive experiments honour the quick flag by shrinking
// their sweeps.
type Experiment struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// Experiments lists every experiment in table order, E1–E21.
var Experiments = []Experiment{
	{"E1", E1Fig12}, {"E2", E2Fig34}, {"E3", E3Fig56},
	{"E4", E4PruningLayers}, {"E5", E5MVCApproximation}, {"E6", E6MVCRounds},
	{"E7", E7ColIntGraph}, {"E8", E8Recoloring},
	{"E9", E9IntervalMIS}, {"E10", E10IntervalMISRounds},
	{"E11", E11ChordalMIS}, {"E12", E12ChordalMISRounds},
	{"E13", E13LowerBound}, {"E14", E14Baselines}, {"E15", E15LocalViewCoherence},
	{"E16", E16BeyondChordal}, {"E17", E17MessageComplexity},
	{"E18", E18RoundTrace}, {"E19", E19PeelTrace},
	{"E20", E20FaultMatrix}, {"E21", E21RetransFlood},
}

// All runs every experiment in order.
func All(w io.Writer, quick bool) error {
	for _, e := range Experiments {
		tbl, err := e.Run(quick)
		if err != nil {
			return err
		}
		tbl.Fprint(w)
	}
	return nil
}
