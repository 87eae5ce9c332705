package peel

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chordal"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// resultsEqual compares two peel results field by field: layers (paths
// with cliques, kind, nodes, diameter, alpha, attachments), remaining
// set, forests, and traces when captured.
func resultsEqual(t *testing.T, label string, want, got *Result, wantForests bool) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: %d layers, want %d", label, len(got.Layers), len(want.Layers))
	}
	for li := range want.Layers {
		wl, gl := &want.Layers[li], &got.Layers[li]
		if gl.Index != wl.Index {
			t.Fatalf("%s layer %d: index %d vs %d", label, li, gl.Index, wl.Index)
		}
		if !gl.Nodes.Equal(wl.Nodes) {
			t.Fatalf("%s layer %d: nodes %v vs %v", label, li, gl.Nodes, wl.Nodes)
		}
		if len(gl.Paths) != len(wl.Paths) {
			t.Fatalf("%s layer %d: %d paths, want %d", label, li, len(gl.Paths), len(wl.Paths))
		}
		for pi := range wl.Paths {
			wp, gp := &wl.Paths[pi], &gl.Paths[pi]
			if gp.Kind != wp.Kind || gp.Diameter != wp.Diameter || gp.Alpha != wp.Alpha {
				t.Fatalf("%s layer %d path %d: kind/diam/alpha (%v,%d,%d) vs (%v,%d,%d)",
					label, li, pi, gp.Kind, gp.Diameter, gp.Alpha, wp.Kind, wp.Diameter, wp.Alpha)
			}
			if !gp.Nodes.Equal(wp.Nodes) {
				t.Fatalf("%s layer %d path %d: nodes %v vs %v", label, li, pi, gp.Nodes, wp.Nodes)
			}
			if len(gp.Cliques) != len(wp.Cliques) {
				t.Fatalf("%s layer %d path %d: %d cliques, want %d", label, li, pi, len(gp.Cliques), len(wp.Cliques))
			}
			for ci := range wp.Cliques {
				if wp.Cliques[ci].Compare(gp.Cliques[ci]) != 0 {
					t.Fatalf("%s layer %d path %d clique %d: %v vs %v",
						label, li, pi, ci, gp.Cliques[ci], wp.Cliques[ci])
				}
			}
			if !setsEqualNil(wp.AttachStart, gp.AttachStart) || !setsEqualNil(wp.AttachEnd, gp.AttachEnd) {
				t.Fatalf("%s layer %d path %d: attachments (%v,%v) vs (%v,%v)",
					label, li, pi, gp.AttachStart, gp.AttachEnd, wp.AttachStart, wp.AttachEnd)
			}
		}
	}
	if !got.Remaining.Equal(want.Remaining) {
		t.Fatalf("%s: remaining %v vs %v", label, got.Remaining, want.Remaining)
	}
	if wantForests {
		if len(got.Forests) != len(want.Forests) {
			t.Fatalf("%s: %d forests, want %d", label, len(got.Forests), len(want.Forests))
		}
		for fi := range want.Forests {
			wf, gf := want.Forests[fi], got.Forests[fi]
			if gf.NumVertices() != wf.NumVertices() {
				t.Fatalf("%s forest %d: %d cliques, want %d", label, fi, gf.NumVertices(), wf.NumVertices())
			}
			for c := 0; c < wf.NumVertices(); c++ {
				if wf.Clique(c).Compare(gf.Clique(c)) != 0 {
					t.Fatalf("%s forest %d clique %d: %v vs %v", label, fi, c, gf.Clique(c), wf.Clique(c))
				}
				wn, gn := wf.Neighbors(c), gf.Neighbors(c)
				if len(wn) != len(gn) {
					t.Fatalf("%s forest %d clique %d: adjacency %v vs %v", label, fi, c, gn, wn)
				}
				for j := range wn {
					if wn[j] != gn[j] {
						t.Fatalf("%s forest %d clique %d: adjacency %v vs %v", label, fi, c, gn, wn)
					}
				}
			}
		}
	}
}

// setsEqualNil is Set.Equal plus nil/non-nil agreement (a nil attachment
// means "absent" and must stay nil).
func setsEqualNil(a, b graph.Set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a.Equal(b)
}

func equivalenceCases() map[string]*graph.Graph {
	cases := map[string]*graph.Graph{
		"empty":       graph.New(),
		"single":      gen.Path(1),
		"path":        gen.Path(40),
		"star":        gen.Star(12),
		"complete":    gen.Complete(8),
		"caterpillar": gen.Caterpillar(10, 3),
		"hubtree":     gen.HubTree(3, 4),
		"fig1":        figures.Fig1(),
	}
	for seed := int64(0); seed < 8; seed++ {
		cases[fmt.Sprintf("chordal%d", seed)] = gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, seed)
		cases[fmt.Sprintf("ktree%d", seed)] = gen.KTree(60, 3, seed)
		cases[fmt.Sprintf("tree%d", seed)] = gen.Tree(70, seed)
		cases[fmt.Sprintf("subtree%d", seed)] = gen.RandomChordalSubtree(150, 3, 5, seed)
		cases[fmt.Sprintf("interval%d", seed)] = gen.RandomInterval(60, 20, 3, seed)
	}
	return cases
}

func equivalenceOptions() []Options {
	return []Options{
		{InternalDiameter: 6},
		{InternalDiameter: 12},
		{InternalDiameter: 0}, // pendant-only
		{InternalDiameter: 5, MaxIterations: 2},
		{InternalDiameter: 1 << 30, MaxIterations: 1, FinalAlpha: 3},
		{InternalDiameter: 7, MaxIterations: 3, FinalAlpha: 2},
	}
}

// TestCSREngineMatchesReference checks the CSR engine reproduces the
// map-backed reference bit for bit — layers, path records, forests,
// remaining set, and traces — across graph families and option shapes,
// and that its Omega is the input's clique number.
func TestCSREngineMatchesReference(t *testing.T) {
	for name, g := range equivalenceCases() {
		for oi, opts := range equivalenceOptions() {
			label := fmt.Sprintf("%s/opt%d", name, oi)
			var wantTrace, gotTrace []LayerEvent
			wopts := opts
			wopts.Trace = func(ev LayerEvent) { wantTrace = append(wantTrace, ev) }
			want, wantErr := runReference(g, wopts)
			gopts := opts
			gopts.Trace = func(ev LayerEvent) { gotTrace = append(gotTrace, ev) }
			got, gotErr := Run(g, gopts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: error %v vs %v", label, gotErr, wantErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s: error %q vs %q", label, gotErr, wantErr)
				}
				continue
			}
			resultsEqual(t, label, want, got, true)
			if omega, _ := chordal.CliqueNumber(g); got.Omega != omega {
				t.Fatalf("%s: Omega = %d, want ω = %d", label, got.Omega, omega)
			}
			if len(gotTrace) != len(wantTrace) {
				t.Fatalf("%s: %d trace events, want %d", label, len(gotTrace), len(wantTrace))
			}
			for i := range wantTrace {
				if gotTrace[i] != wantTrace[i] {
					t.Fatalf("%s trace %d: %+v vs %+v", label, i, gotTrace[i], wantTrace[i])
				}
			}
		}
	}
}

// TestCSREngineNoForests checks the opt-out changes nothing but the
// Forests slice.
func TestCSREngineNoForests(t *testing.T) {
	g := gen.RandomChordalSubtree(200, 3, 5, 7)
	want, err := Run(g, Options{InternalDiameter: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, Options{InternalDiameter: 6, NoForests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Forests) != 0 {
		t.Fatalf("NoForests still produced %d forests", len(got.Forests))
	}
	resultsEqual(t, "noforests", want, got, false)
}

// TestCSREngineWorkerSweep checks bit-identical output at every
// GOMAXPROCS (the per-path slots make sharding invisible).
func TestCSREngineWorkerSweep(t *testing.T) {
	counts := []int{1, 2, 3, runtime.GOMAXPROCS(0) + 2}
	for name, g := range map[string]*graph.Graph{
		"subtree": gen.RandomChordalSubtree(300, 3, 5, 11),
		"chordal": gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 3),
		"trunc":   gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 3, AttachFull: 0.2}, 5),
	} {
		opts := Options{InternalDiameter: 6}
		if name == "trunc" {
			opts = Options{InternalDiameter: 5, MaxIterations: 2, FinalAlpha: 2}
		}
		var want *Result
		for _, procs := range counts {
			proctest.With(procs, func() {
				got, err := Run(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					return
				}
				resultsEqual(t, fmt.Sprintf("%s/procs=%d", name, procs), want, got, true)
			})
		}
	}
}
