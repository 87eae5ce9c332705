package core

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/peel"
	"repro/internal/proctest"
)

// postPeelGraph is one differential-test input: family picks the
// generator, n its size.
func postPeelGraph(family uint8, n int, seed int64) *graph.Graph {
	switch family % 6 {
	case 0:
		return gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, seed)
	case 1:
		return gen.RandomChordalSubtree(n, 3, 6, seed)
	case 2:
		return gen.KTree(n, 3, seed)
	case 3:
		g, _ := gen.RelabelRandom(gen.HubTree(1+n%4, 3+n%9), seed)
		return g
	case 4:
		return gen.Caterpillar(n/3+1, 2)
	default:
		return gen.RandomInterval(n, float64(n), 4, seed)
	}
}

var postPeelEps = [...]float64{0.3, 0.5, 1, 2}

// checkCorrection runs the index-space correction kernel and the
// map-backed correctPath oracle layer by layer from the same colors —
// the pipeline's provisional ones, with every perturb-th node's color
// shifted when perturb > 0: inside the palette for odd perturb, possibly
// outside it for even — and requires the same colors after every layer and the
// same error text.
func checkCorrection(t *testing.T, g *graph.Graph, eps float64, perturb int) {
	t.Helper()
	k := EffectiveK(eps)
	col, err := ColorChordal(g, eps)
	if err != nil {
		t.Fatal(err)
	}
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k, NoForests: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := peeled.Snapshot
	ids := ix.IDs()
	start := maps.Clone(col.Provisional)
	for i, v := range ids {
		switch {
		case perturb == 0 || i%perturb != 0:
		case perturb%2 == 1: // stays in the palette
			start[v] = (start[v]+i)%col.Palette + 1
		default:
			start[v] = (start[v] + i) % (col.Palette + 2)
		}
	}
	want := &ChordalColoring{Colors: maps.Clone(start), Palette: col.Palette}
	layerOf := idLayers(peeled)
	cr := newCorrector(peeled, k, col.Palette)
	for x, v := range ids {
		cr.colors[x] = int32(start[v])
	}
	for li := len(peeled.Layers) - 2; li >= 0; li-- {
		layer := peeled.Layers[li]
		var wantErr error
		for ri := range layer.Paths {
			if wantErr = correctPath(g, ix, &layer.Paths[ri], layer.Index, layerOf, k, want); wantErr != nil {
				break
			}
		}
		gotErr := cr.correctLayer(li, int32(layer.Index), nil)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("eps=%v perturb=%d layer %d: kernel error %v, oracle error %v", eps, perturb, layer.Index, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		for x, v := range ids {
			if int(cr.colors[x]) != want.Colors[v] {
				t.Fatalf("eps=%v perturb=%d layer %d: node %d colored %d, oracle %d", eps, perturb, layer.Index, v, cr.colors[x], want.Colors[v])
			}
		}
	}
	if perturb == 0 && !reflect.DeepEqual(want.Colors, col.Colors) {
		t.Fatalf("eps=%v: ColorChordal's colors differ from the oracle correction of its provisional colors", eps)
	}
}

// checkStripPaths compares the correction kernel's strip path with
// interval.RestrictCliquePath on every peeled path's full path
// (attachments included), restricted to its strip W ∪ W′ and to a
// seed-chosen subset of its cliques' nodes, where nested restrictions
// are common.
func checkStripPaths(t *testing.T, g *graph.Graph, eps float64, seed int64) {
	t.Helper()
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * EffectiveK(eps), NoForests: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := peeled.Snapshot
	layerOf := idLayers(peeled)
	var s correctScratch
	for _, layer := range peeled.Layers {
		for ri := range layer.Paths {
			rec := &layer.Paths[ri]
			full := fullPath(ix, rec)
			strip := make(map[graph.ID]bool)
			subset := make(map[graph.ID]bool)
			for _, v := range ix.IDSet(rec.Nodes) {
				strip[v] = true
				for _, u := range g.Neighbors(v) {
					if layerOf[u] > layer.Index {
						strip[u] = true
					}
				}
			}
			for _, c := range full {
				for _, v := range c {
					if (uint64(v)^uint64(seed))*0x9e3779b97f4a7c15>>62 != 0 {
						subset[v] = true
					}
				}
			}
			for _, keep := range []map[graph.ID]bool{strip, subset} {
				want := interval.RestrictCliquePath(full, func(v graph.ID) bool { return keep[v] })
				kept := make([]graph.ID, 0, len(keep))
				for v := range keep {
					kept = append(kept, v)
				}
				kept = graph.NewSet(kept...)
				s.nextEpoch(ix.NumNodes())
				s.strip = s.strip[:0]
				for p, v := range kept {
					x, _ := ix.IndexOf(v)
					s.stamp[x], s.loc[x] = s.epoch, int32(p)
					s.strip = append(s.strip, int32(x))
				}
				s.stripPath(rec)
				got := make([]graph.Set, len(s.clOff)-1)
				for i := range got {
					for _, p := range s.cl[s.clOff[i]:s.clOff[i+1]] {
						got[i] = append(got[i], kept[p])
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("eps=%v layer %d path %d: kernel strip path %v, RestrictCliquePath %v", eps, layer.Index, ri, got, want)
				}
			}
		}
	}
}

// checkColorPaths checks the strip kernel's ColIntGraph and Lemma-9
// search against the map-backed oracles, which build a graph per path,
// block and cut repair: on every path peeled from g at ε
// (checkPeeledColorPaths), then on random interval models of n nodes, a
// dense and a sparse one, at k = 1, …, 8, and ExtendColoring on E8-style
// strips (checkExtendColoring).
func checkColorPaths(t *testing.T, g *graph.Graph, eps float64, n int, seed int64) {
	t.Helper()
	checkPeeledColorPaths(t, g, eps)
	for _, span := range []float64{float64(n) / 8, float64(n) / 2} {
		ivs := gen.RandomIntervals(n, span, 4, seed)
		ig, path := gen.FromIntervals(ivs), interval.CliquePathFromModel(ivs)
		for ik := 1; ik <= 8; ik++ {
			want, wantErr := colIntGraphOracle(ig, path, ik)
			got, gotErr := ColIntGraph(ig, path, ik)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d span=%v k=%d seed %d: ColIntGraph %+v, %v; oracle %+v, %v", n, span, ik, seed, got, gotErr, want, wantErr)
			}
		}
	}
	checkExtendColoring(t, seed)
}

// checkPeeledColorPaths runs the strip kernel's ColIntGraph on every
// path peeled from g at ε, at the pipeline's k and at k = 1 (more
// blocks): it must give colIntGraphOracle's coloring of G[W] along
// peel.LayerCliquePath — colors, Rounds, Blocks, Omega, Palette,
// ColorsUsed and error text — and ColorChordal's provisional colors must
// be the oracle's at the pipeline's k. It returns the number of paths
// checked.
func checkPeeledColorPaths(t *testing.T, g *graph.Graph, eps float64) int {
	t.Helper()
	k := EffectiveK(eps)
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k, NoForests: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := peeled.Snapshot
	col, err := ColorChordal(g, eps)
	if err != nil {
		t.Fatal(err)
	}
	var s correctScratch
	paths := 0
	for _, layer := range peeled.Layers {
		for ri := range layer.Paths {
			rec := &layer.Paths[ri]
			w, nodes := rec.Nodes, ix.IDSet(rec.Nodes)
			for _, pk := range []int{k, 1} {
				want, wantErr := colIntGraphOracle(g.InducedSubgraph(nodes), peel.LayerCliquePath(ix, *rec), pk)
				got, gotErr := s.colIntGraph(ix, w, rec.Cliques, pk)
				where := fmt.Sprintf("eps=%v k=%d layer %d path %d", eps, pk, layer.Index, ri)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: kernel error %v, oracle error %v", where, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				got.Colors = colorMap(nodes, s.color[:len(w)])
				got.ColorsUsed = colorsUsed(s.color[:len(w)])
				if !reflect.DeepEqual(&got, want) {
					t.Fatalf("%s: kernel %+v, oracle %+v", where, got, *want)
				}
				if pk != k {
					continue
				}
				for _, v := range nodes {
					if col.Provisional[v] != want.Colors[v] {
						t.Fatalf("%s: ColorChordal colored node %d %d, oracle %d", where, v, col.Provisional[v], want.Colors[v])
					}
				}
			}
			paths++
		}
	}
	return paths
}

// checkExtendColoring compares ExtendColoring with the map-backed
// oracle on E8's strips — random interval graphs with both end cliques
// fixed, the far one perturbed so the strip genuinely conflicts — at
// k = 3, 5, 8, and on variants of each with a fixed color pushed out of
// the palette, two fixed neighbors given one color, and fixed nodes
// outside g; then on short windows of the same path at the tight
// palette ω, with the last clique fixed alone or with the first, where
// the search has to step back or fail, and at palette ω−1 with nothing
// fixed where ω ≤ 5. The returned maps and error texts must be equal.
func checkExtendColoring(t *testing.T, seed int64) {
	t.Helper()
	ivs := gen.RandomIntervals(80, 25, 3, seed)
	g, path := gen.FromIntervals(ivs), interval.CliquePathFromModel(ivs)
	if len(path) < 3 {
		return
	}
	omega, err := chordal.CliqueNumber(g)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := chordal.OptimalColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	check := func(g *graph.Graph, path []graph.Set, fixed map[graph.ID]int, palette int, where string) {
		t.Helper()
		want, wantErr := extendColoringOracle(g, path, fixed, palette)
		got, gotErr := ExtendColoring(g, path, fixed, palette)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d %s: ExtendColoring %v, %v; oracle %v, %v", seed, where, got, gotErr, want, wantErr)
		}
	}
	// ends fixes path's last clique to the optimal colors shifted by
	// shift and, with both, its first to the optimal colors.
	ends := func(path []graph.Set, palette, shift int, both bool) map[graph.ID]int {
		fixed := make(map[graph.ID]int)
		if both {
			for _, v := range path[0] {
				fixed[v] = opt[v]
			}
		}
		for _, v := range path[len(path)-1] {
			if _, dup := fixed[v]; !dup {
				fixed[v] = (opt[v]+shift-1)%palette + 1
			}
		}
		return fixed
	}
	last := path[len(path)-1]
	for _, k := range []int{3, 5, 8} {
		palette := (k+1)*omega/k + 1
		fixed := ends(path, palette, 1, true)
		variants := []map[graph.ID]int{fixed, nil}
		outside := maps.Clone(fixed)
		outside[1000], outside[-1] = palette, 1
		variants = append(variants, outside)
		if len(last) > 1 {
			conflict := maps.Clone(fixed)
			conflict[last[1]] = conflict[last[0]]
			variants = append(variants, conflict)
		}
		for i, c := range []int{0, palette + 1, -3} {
			bad := maps.Clone(fixed)
			bad[last[i%len(last)]] = c
			variants = append(variants, bad)
		}
		foreign := maps.Clone(fixed)
		foreign[-7] = palette + 2
		variants = append(variants, foreign)
		for vi, f := range variants {
			check(g, path, f, palette, fmt.Sprintf("k=%d variant %d", k, vi))
		}
	}
	for m := 1; m < 6 && m < len(path); m++ {
		window := make(map[graph.ID]bool)
		for _, c := range path[:m+1] {
			for _, v := range c {
				window[v] = true
			}
		}
		var nodes []graph.ID
		for v := range window {
			nodes = append(nodes, v)
		}
		sub := g.InducedSubgraph(nodes)
		subPath := interval.RestrictCliquePath(path, func(v graph.ID) bool { return window[v] })
		w := 0 // the window's ω
		for _, c := range subPath {
			w = max(w, len(c))
		}
		for shift := 1; shift < w; shift++ {
			for _, both := range []bool{false, true} {
				check(sub, subPath, ends(subPath, w, shift, both), w, fmt.Sprintf("window %d shift %d both %v", m, shift, both))
			}
		}
		if w <= 5 { // the search runs through every coloring of a clique's first w−1 nodes
			check(sub, subPath, nil, w-1, fmt.Sprintf("window %d palette ω−1", m))
		}
	}
}

// checkMISComponents runs Algorithm 6's post-peel stage with the
// map-backed oracles — IndependenceNumber, componentAnchor, AbsorbingMIS
// — and checks the index-space component kernel against them on every
// component on the way: α, the anchor, and the absorbing set with the
// oracle's anchor and with none. The oracle's set and component counts
// must then equal MISChordalWithOptions', with and without
// DisableAbsorbing.
func checkMISComponents(t *testing.T, g *graph.Graph, eps float64) {
	t.Helper()
	d, iterations := MISChordalParams(eps)
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 2*d + 3, MaxIterations: iterations, FinalAlpha: d, NoForests: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := peeled.Snapshot
	var s misScratch
	for _, disable := range []bool{false, true} {
		var set graph.Set
		blocked := make(map[graph.ID]bool)
		exact, approx := 0, 0
		for li, layer := range peeled.Layers {
			last := li == len(peeled.Layers)-1
			for ri := range layer.Paths {
				rec := &layer.Paths[ri]
				var avail []graph.ID
				for _, v := range ix.IDSet(rec.Nodes) {
					if !blocked[v] {
						avail = append(avail, v)
					}
				}
				for _, comp := range g.InducedSubgraph(avail).Components() {
					h := g.InducedSubgraph(comp)
					idx := make([]int32, len(comp))
					for i, v := range comp {
						x, _ := ix.IndexOf(v)
						idx[i] = int32(x)
					}
					alpha, err := chordal.IndependenceNumber(h)
					if err != nil {
						t.Fatal(err)
					}
					s.load(ix, idx)
					if got := s.alpha(); got != alpha {
						t.Fatalf("eps=%v component %v: kernel α %d, oracle %d", eps, comp, got, alpha)
					}
					var ih graph.Set
					if alpha < d {
						anchor := componentAnchor(g, h, ix, rec)
						kernelAnchor := s.anchorOf(ix, idx, rec)
						if (kernelAnchor == nil) != (anchor == nil) || !ix.IDSet(kernelAnchor).Equal(anchor) {
							t.Fatalf("eps=%v component %v: kernel anchor %v, oracle %v", eps, comp, ix.IDSet(kernelAnchor), anchor)
						}
						for _, a := range []graph.Set{anchor, nil} {
							s.out = s.out[:0]
							if a == nil {
								kernelAnchor = nil
							}
							s.absorb(ix, idx, kernelAnchor)
							got := graph.NewSet(ix.IDSet(s.out)...)
							if want := AbsorbingMIS(h, g, a); !got.Equal(want) {
								t.Fatalf("eps=%v component %v anchor %v: kernel set %v, oracle %v", eps, comp, a, got, want)
							}
						}
						if last || disable {
							anchor = nil
						}
						ih = AbsorbingMIS(h, g, anchor)
						exact++
					} else {
						path := interval.RestrictCliquePath(peel.LayerCliquePath(ix, *rec), h.HasNode)
						im, err := misInterval(h, path, eps/8)
						if err != nil {
							t.Fatal(err)
						}
						ih = im.Set
						approx++
					}
					for _, v := range ih {
						set = append(set, v)
						blocked[v] = true
						for _, u := range g.Neighbors(v) {
							blocked[u] = true
						}
					}
				}
			}
		}
		res, err := MISChordalWithOptions(g, eps, ChordalMISOptions{DisableAbsorbing: disable})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.NewSet(set...).Equal(res.Set) || res.ExactComponents != exact || res.ApproxComponents != approx {
			t.Fatalf("eps=%v disable=%v: pipeline (|I|=%d exact=%d approx=%d) differs from the oracle (|I|=%d exact=%d approx=%d)",
				eps, disable, len(res.Set), res.ExactComponents, res.ApproxComponents, len(set), exact, approx)
		}
	}
}

// FuzzPostPeelStages checks both index-space post-peel kernels against
// their map-backed oracles on every generator family: the Lemma-10
// correction at ε ∈ {0.3, 0.5, 1, 2}, from the pipeline's provisional
// colors or perturbed ones, and the MIS components at ε/4, inside the
// MIS domain (0, 1).
func FuzzPostPeelStages(f *testing.F) {
	for family := uint8(0); family < 6; family++ {
		f.Add(family, uint8(60+family*11), int64(family)+1, family, uint8(0))
	}
	f.Add(uint8(1), uint8(150), int64(7), uint8(1), uint8(5))
	f.Add(uint8(3), uint8(3), int64(2), uint8(0), uint8(3))
	f.Add(uint8(0), uint8(90), int64(4), uint8(2), uint8(7))
	f.Add(uint8(3), uint8(67), int64(5), uint8(3), uint8(0)) // chains longer than the zone
	f.Fuzz(func(t *testing.T, family, size uint8, seed int64, epsSel, perturb uint8) {
		g := postPeelGraph(family, int(size%160)+4, seed)
		eps := postPeelEps[epsSel%uint8(len(postPeelEps))]
		checkCorrection(t, g, eps, int(perturb%8))
		checkStripPaths(t, g, eps, seed)
		checkColorPaths(t, g, eps, int(size%160)+4, seed)
		checkMISComponents(t, g, eps/4)
	})
}

// TestPostPeelStagesMatchOracles runs the differential checks on inputs
// the small fuzz sizes do not reach: the central workload's generator at
// 3000 nodes, hub-tree chains longer than the recoloring zone, a
// caterpillar whose one component takes the interval branch (α ≥ d),
// and the spider where absorption decides the set.
func TestPostPeelStagesMatchOracles(t *testing.T) {
	subtree := gen.RandomChordalSubtree(3000, 3, 6, 1)
	hubs, _ := gen.RelabelRandom(gen.HubTree(3, 14), 5)
	for _, eps := range []float64{0.5, 2} {
		checkCorrection(t, subtree, eps, 0)
		checkCorrection(t, hubs, eps, 0)
		checkCorrection(t, hubs, eps, 7)
		checkStripPaths(t, subtree, eps, 1)
		checkColorPaths(t, subtree, eps, 400, 1)
		checkColorPaths(t, hubs, eps, 120, 2)
	}
	checkMISComponents(t, subtree, 0.5)
	checkMISComponents(t, hubs, 0.3)
	checkMISComponents(t, spiderK4(6), 0.45)
	caterpillar := gen.Caterpillar(200, 1)
	checkMISComponents(t, caterpillar, 0.9)
	if res, err := MISChordal(caterpillar, 0.9); err != nil || res.ApproxComponents == 0 {
		t.Fatalf("caterpillar MIS took no interval branch: %+v, %v", res, err)
	}
}

// TestExtendColoringErrorsNameLowestOffender repeats each invalid
// fixed coloring: whatever the map order, the error must name the
// lowest-ID offender, and a conflict its lower end first.
func TestExtendColoringErrorsNameLowestOffender(t *testing.T) {
	g := gen.Path(6)
	path := []graph.Set{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}
	cases := []struct {
		fixed map[graph.ID]int
		want  string
	}{
		{map[graph.ID]int{5: 9, 1: 4, 3: 7, 0: 2}, "fixed color 4 of node 1 outside palette [1,3]"},
		{map[graph.ID]int{4: 2, 5: 2, 0: 1, 1: 1, 2: 3, 3: 3}, "fixed colors conflict on edge 0-1"},
	}
	for _, c := range cases {
		for range 50 {
			_, err := ExtendColoring(g, path, c.fixed, 3)
			if err == nil || err.Error() != c.want {
				t.Fatalf("ExtendColoring(%v) = %v, want %q", c.fixed, err, c.want)
			}
		}
	}
}

// TestCentralizedPipelinesDeterministicAcrossGOMAXPROCS sweeps the
// centralized coloring and MIS at GOMAXPROCS 1, 2 and 4 on graphs large
// enough that correction layers and MIS records shard: colors,
// provisional colors and the set must be identical.
func TestCentralizedPipelinesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		g := gen.RandomChordalSubtree(3000, 3, 6, seed)
		var refCol *ChordalColoring
		var refMIS *ChordalMISResult
		proctest.Sweep(func(procs int) {
			col, err := ColorChordal(g, 0.5)
			if err != nil {
				t.Fatalf("seed %d procs=%d: %v", seed, procs, err)
			}
			mis, err := MISChordal(g, 0.5)
			if err != nil {
				t.Fatalf("seed %d procs=%d: %v", seed, procs, err)
			}
			if refCol == nil {
				refCol, refMIS = col, mis
				return
			}
			if !reflect.DeepEqual(col.Colors, refCol.Colors) || !reflect.DeepEqual(col.Provisional, refCol.Provisional) ||
				col.ColorsUsed != refCol.ColorsUsed {
				t.Fatalf("seed %d procs=%d: coloring differs from procs=1", seed, procs)
			}
			if !reflect.DeepEqual(mis.Set, refMIS.Set) || mis.ExactComponents != refMIS.ExactComponents ||
				mis.ApproxComponents != refMIS.ApproxComponents || mis.Rounds != refMIS.Rounds {
				t.Fatalf("seed %d procs=%d: MIS differs from procs=1", seed, procs)
			}
		})
	}
}
