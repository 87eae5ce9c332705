package graph

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadJSON checks the graph parser never panics and that every graph
// it accepts survives a round trip.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[1,2],"edges":[[1,2]]}`))
	f.Add([]byte(`{"edges":[[5,7],[7,9]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"edges":[[1,1]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("serialize accepted graph: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !g.Equal(back) {
			t.Fatalf("round trip changed graph")
		}
	})
}

// FuzzGraphOps drives basic operations from a fuzzed edge list.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		for i := 0; i+1 < len(data); i += 2 {
			g.AddEdge(ID(data[i]), ID(data[i+1]))
		}
		n := g.NumNodes()
		comps := g.Components()
		total := 0
		for _, c := range comps {
			total += len(c)
		}
		if total != n {
			t.Fatalf("components cover %d of %d nodes", total, n)
		}
		if len(g.Nodes()) != n {
			t.Fatal("Nodes length mismatch")
		}
		for _, v := range g.Nodes() {
			ball := g.Ball(v, 2)
			if len(ball) == 0 || ball[0] > v && !contains(ball, v) {
				t.Fatal("ball must contain its center")
			}
		}
	})
}

func contains(s []ID, v ID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// int32s decodes b one signed byte per value: small values keep the
// fuzzer near the CSR shapes that matter.
func int32s(b []byte) []int32 {
	out := make([]int32, len(b))
	for i, v := range b {
		out[i] = int32(int8(v))
	}
	return out
}

// FuzzNewIndexedFromCSR feeds arbitrary CSR arrays to the snapshot
// rebuild a shard host runs on every session frame: it must never
// panic, and a CSR it accepts must round-trip through ix.CSR() and
// agree with the snapshot's lookups.
func FuzzNewIndexedFromCSR(f *testing.F) {
	bytesOf := func(v []int32) []byte {
		out := make([]byte, len(v))
		for i, x := range v {
			out[i] = byte(int8(x))
		}
		return out
	}
	ids, rowPtr, colIdx := NewIndexed(FromEdges(nil, [][2]ID{{1, 2}, {2, 3}, {3, 1}, {3, 4}})).CSR()
	idBytes := make([]int32, len(ids))
	for i, v := range ids {
		idBytes[i] = int32(v)
	}
	f.Add(bytesOf(idBytes), bytesOf(rowPtr), bytesOf(colIdx))
	f.Add([]byte{1, 2}, []byte{0, 100, 5}, make([]byte, 5))
	f.Fuzz(func(t *testing.T, idb, rpb, cib []byte) {
		ids := make([]ID, len(idb))
		for i, v := range int32s(idb) {
			ids[i] = ID(v)
		}
		rowPtr, colIdx := int32s(rpb), int32s(cib)
		ix, err := NewIndexedFromCSR(ids, rowPtr, colIdx)
		if err != nil {
			return
		}
		ids2, rowPtr2, colIdx2 := ix.CSR()
		if !slices.Equal(ids2, ids) || !slices.Equal(rowPtr2, rowPtr) || !slices.Equal(colIdx2, colIdx) {
			t.Fatalf("CSR() = (%v, %v, %v), built from (%v, %v, %v)", ids2, rowPtr2, colIdx2, ids, rowPtr, colIdx)
		}
		if _, err := NewIndexedFromCSR(slices.Clone(ids2), slices.Clone(rowPtr2), slices.Clone(colIdx2)); err != nil {
			t.Fatalf("accepted CSR does not rebuild: %v", err)
		}
		for i, v := range ids {
			if j, ok := ix.IndexOf(v); !ok || j != i {
				t.Fatalf("IndexOf(%d) = %d, %v, want %d", v, j, ok, i)
			}
			row := ix.NeighborIndices(i)
			if !slices.Equal(row, colIdx[rowPtr[i]:rowPtr[i+1]]) {
				t.Fatalf("row %d = %v, want %v", i, row, colIdx[rowPtr[i]:rowPtr[i+1]])
			}
			for k, u := range ix.NeighborIDs(i) {
				if u != ids[row[k]] {
					t.Fatalf("row %d neighbor %d is ID %d, want %d", i, k, u, ids[row[k]])
				}
			}
		}
	})
}
