package chordal

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// elimGraph builds generator family f on n nodes: six chordal families,
// then the non-chordal controls C_n and G(n, 0.15).
func elimGraph(f uint8, n int, seed int64) *graph.Graph {
	switch f % 8 {
	case 0:
		return gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.4}, seed)
	case 1:
		return gen.KTree(n, 3, seed)
	case 2:
		return gen.Tree(n, seed)
	case 3:
		return gen.RandomChordalSubtree(n, 3, 5, seed)
	case 4:
		return gen.RandomInterval(n, float64(n), 4, seed)
	case 5:
		g, _ := gen.RelabelRandom(gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.3}, seed), seed)
		return g
	case 6:
		return gen.Cycle(n)
	default:
		return gen.GNP(n, 0.15, seed)
	}
}

// checkElimCase runs the kernel over the member subset of g that the
// subset bits pick (row i is a member iff bit i mod 8·len(subset) is
// set; an empty subset keeps every row), once on g's snapshot and once
// on a compacted CSR holding the members and every third other row, and
// compares each result with the map-backed oracles on the induced
// subgraph.
func checkElimCase(t *testing.T, k *Elim, g *graph.Graph, subset []byte) {
	t.Helper()
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()
	var members []int32
	var ids []graph.ID
	keep := make([]bool, n)
	for i := 0; i < n; i++ {
		if len(subset) == 0 || subset[i/8%len(subset)]>>(i%8)&1 == 1 {
			members = append(members, int32(i))
			ids = append(ids, ix.IDOf(i))
			keep[i] = true
		} else if i%3 == 0 {
			keep[i] = true
		}
	}
	h := g.InducedSubgraph(ids)

	_, rowPtr, cols := ix.CSR()
	checkElim(t, "snapshot", k, rowPtr, cols, members, func(r int32) graph.ID { return ix.IDOf(int(r)) }, h)

	// The kept rows renumbered densely in snapshot order, with each row's
	// columns restricted to kept neighbors.
	rowOf := make([]int32, n)
	var nodes []int32
	for i := range n {
		rowOf[i] = -1
		if keep[i] {
			rowOf[i] = int32(len(nodes))
			nodes = append(nodes, int32(i))
		}
	}
	rowPtr, cols = []int32{0}, nil
	for _, idx := range nodes {
		for _, u := range ix.NeighborIndices(int(idx)) {
			if rowOf[u] >= 0 {
				cols = append(cols, rowOf[u])
			}
		}
		rowPtr = append(rowPtr, int32(len(cols)))
	}
	rows := make([]int32, len(members))
	for i, idx := range members {
		rows[i] = rowOf[idx]
	}
	checkElim(t, "ball", k, rowPtr, cols, rows, func(r int32) graph.ID { return ix.IDOf(int(nodes[r])) }, h)
}

// checkElim compares one kernel run over members of the CSR graph
// (rowPtr, cols), whose row r is node id(r), with the oracles on h, the
// subgraph the members induce: the order is MCS(h), the PEO verdict is
// IsChordal(h) with PEO's error text, and on chordal h, α matches
// IndependenceNumber. The scans run out of order (Alpha before CheckPEO)
// to check that neither depends on the other's marks.
func checkElim(t *testing.T, where string, k *Elim, rowPtr, cols, members []int32, id func(int32) graph.ID, h *graph.Graph) {
	t.Helper()
	order := k.MCS(rowPtr, cols, members)
	want := MCS(h)
	if len(order) != len(want) {
		t.Fatalf("%s: order has %d rows, want %d", where, len(order), len(want))
	}
	for i, r := range order {
		if id(r) != want[i] {
			t.Fatalf("%s: order[%d] = node %d, want %d", where, i, id(r), want[i])
		}
	}
	pos := k.Positions()
	for i, r := range order {
		if pos[r] != int32(i) {
			t.Fatalf("%s: position of row %d = %d, want %d", where, r, pos[r], i)
		}
	}
	alpha := k.Alpha()
	err := k.CheckPEO()
	_, wantErr := PEO(h)
	if (err == nil) != IsChordal(h) {
		t.Fatalf("%s: CheckPEO = %v, IsChordal = %v", where, err, IsChordal(h))
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, want %q", where, err, wantErr)
		}
		return
	}
	if wantAlpha, _ := IndependenceNumber(h); alpha != wantAlpha {
		t.Fatalf("%s: α = %d, want %d", where, alpha, wantAlpha)
	}
}

func TestElimMatchesOracles(t *testing.T) {
	var k Elim // one kernel across every case: scratch reuse must not leak
	subsets := [][]byte{nil, {0x55}, {0xff, 0x0f, 0xf3}, {0x00, 0x01}}
	for f := uint8(0); f < 8; f++ {
		for _, n := range []int{1, 4, 6, 40, 90} {
			for seed := int64(0); seed < 3; seed++ {
				g := elimGraph(f, n, seed)
				for _, s := range subsets {
					checkElimCase(t, &k, g, s)
				}
			}
		}
	}
	checkElimCase(t, &k, graph.New(), nil)
}

// FuzzElim checks the kernel against the oracles on a generator family,
// size, seed and member subset drawn from the fuzz input.
func FuzzElim(f *testing.F) {
	f.Add(uint8(0), uint8(40), int64(1), []byte{0xff, 0x0f})
	f.Add(uint8(3), uint8(90), int64(2), []byte{})
	f.Add(uint8(6), uint8(6), int64(0), []byte{0xfb})
	f.Add(uint8(7), uint8(60), int64(1), []byte{0xaa, 0x55, 0x3c})
	var k Elim
	f.Fuzz(func(t *testing.T, family, size uint8, seed int64, subset []byte) {
		checkElimCase(t, &k, elimGraph(family, int(size%100)+1, seed), subset)
	})
}
