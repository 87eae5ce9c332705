package peel

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chordal"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proctest"
)

// resultsEqual compares two peel results field by field: layers (paths
// with cliques, kind, nodes, diameter, attachments, all by snapshot
// index), node layers, and forests when asked.
func resultsEqual(t *testing.T, label string, want, got *Result, wantForests bool) {
	t.Helper()
	if !slices.Equal(got.Snapshot.IDs(), want.Snapshot.IDs()) {
		t.Fatalf("%s: snapshot IDs %v vs %v", label, got.Snapshot.IDs(), want.Snapshot.IDs())
	}
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: %d layers, want %d", label, len(got.Layers), len(want.Layers))
	}
	for li := range want.Layers {
		wl, gl := &want.Layers[li], &got.Layers[li]
		if gl.Index != wl.Index {
			t.Fatalf("%s layer %d: index %d vs %d", label, li, gl.Index, wl.Index)
		}
		if len(gl.Paths) != len(wl.Paths) {
			t.Fatalf("%s layer %d: %d paths, want %d", label, li, len(gl.Paths), len(wl.Paths))
		}
		for pi := range wl.Paths {
			wp, gp := &wl.Paths[pi], &gl.Paths[pi]
			if gp.Kind != wp.Kind || gp.Diameter != wp.Diameter {
				t.Fatalf("%s layer %d path %d: kind/diam (%v,%d) vs (%v,%d)",
					label, li, pi, gp.Kind, gp.Diameter, wp.Kind, wp.Diameter)
			}
			if !slices.Equal(gp.Nodes, wp.Nodes) {
				t.Fatalf("%s layer %d path %d: nodes %v vs %v", label, li, pi, gp.Nodes, wp.Nodes)
			}
			if !slices.EqualFunc(gp.Cliques, wp.Cliques, slices.Equal) {
				t.Fatalf("%s layer %d path %d: cliques %v vs %v", label, li, pi, gp.Cliques, wp.Cliques)
			}
			if !equalNil(wp.AttachStart, gp.AttachStart) || !equalNil(wp.AttachEnd, gp.AttachEnd) {
				t.Fatalf("%s layer %d path %d: attachments (%v,%v) vs (%v,%v)",
					label, li, pi, gp.AttachStart, gp.AttachEnd, wp.AttachStart, wp.AttachEnd)
			}
		}
	}
	if !slices.Equal(got.NodeLayer, want.NodeLayer) {
		t.Fatalf("%s: node layers %v vs %v", label, got.NodeLayer, want.NodeLayer)
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

// equalNil is slices.Equal plus nil/non-nil agreement (a nil attachment
// means "absent" and must stay nil).
func equalNil(a, b []int32) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
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
// map-backed reference bit for bit — layers, path records, node layers,
// forests, and traces — across graph families and option shapes, and
// that its Omega is the input's clique number.
func TestCSREngineMatchesReference(t *testing.T) {
	for name, g := range equivalenceCases() {
		for oi, opts := range equivalenceOptions() {
			matchesReference(t, fmt.Sprintf("%s/opt%d", name, oi), g, opts)
		}
	}
}

// TestCSREngineMatchesReferenceExhaustive runs the same check on every
// labeled chordal graph with at most five nodes, under every option
// shape: 894 graphs, every ID order and degenerate shape among them.
func TestCSREngineMatchesReferenceExhaustive(t *testing.T) {
	for n := 1; n <= 5; n++ {
		chordal.AllLabeled(n, func(g *graph.Graph) {
			for oi, opts := range equivalenceOptions() {
				matchesReference(t, fmt.Sprintf("n=%d %v/opt%d", n, g.Edges(), oi), g, opts)
			}
		})
	}
}

// matchesReference runs Run and runReference on g under opts and
// requires equal results, errors and traces, and Omega = ω(g).
func matchesReference(t *testing.T, label string, g *graph.Graph, opts Options) {
	t.Helper()
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
		return
	}
	resultsEqual(t, label, want, got, true)
	if omega, _ := chordal.CliqueNumber(g); got.Omega != omega {
		t.Fatalf("%s: Omega = %d, want ω = %d", label, got.Omega, omega)
	}
	if !slices.Equal(gotTrace, wantTrace) {
		t.Fatalf("%s: trace %+v, want %+v", label, gotTrace, wantTrace)
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
