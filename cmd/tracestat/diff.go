package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// runDiff loads both traces and prints either the first divergence
// obs.DiffDeterministic finds (exit 1) or a match summary (exit 0).
func runDiff(pathA, pathB string, w io.Writer) (int, error) {
	load := func(path string) ([]obs.Event, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		events, err := readEvents(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return events, nil
	}
	a, err := load(pathA)
	if err != nil {
		return 2, err
	}
	b, err := load(pathB)
	if err != nil {
		return 2, err
	}
	if err := obs.DiffDeterministic(a, b); err != nil {
		fmt.Fprintf(w, "%s vs %s: %v\n", pathA, pathB, err)
		return 1, nil
	}
	fmt.Fprintf(w, "%s vs %s: %d deterministic records, no divergence\n",
		pathA, pathB, len(obs.DeterministicRecords(a)))
	return 0, nil
}
