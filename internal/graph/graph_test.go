package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// RemoveEdge deletes the edge uv if present. Production code removes
// whole nodes (RemoveNode); only the tests of the neighbor caches and
// the snapshots remove single edges.
func (g *Graph) RemoveEdge(u, v ID) {
	nb, ok := g.adj[u]
	if !ok {
		return
	}
	if _, ok := nb[v]; !ok {
		return
	}
	delete(nb, v)
	delete(g.adj[v], u)
	g.invalidate(u)
	g.invalidate(v)
}

func pathGraph(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(ID(i))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ID(i), ID(i+1))
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(5)
	g.AddNode(5)
	if got := g.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d, want 1", got)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge 1-2 missing in one direction")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	g.AddEdge(1, 2) // duplicate
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge changed count: %d", g.NumEdges())
	}
	g.AddEdge(3, 3) // self-loop ignored
	if g.HasEdge(3, 3) {
		t.Fatal("self-loop was added")
	}
}

func TestRemoveNode(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{1, 2}, {2, 3}, {1, 3}})
	g.RemoveNode(2)
	if g.HasNode(2) {
		t.Fatal("node 2 still present")
	}
	if g.HasEdge(1, 2) || g.HasEdge(2, 3) {
		t.Fatal("edges incident to 2 still present")
	}
	if !g.HasEdge(1, 3) {
		t.Fatal("unrelated edge 1-3 was removed")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{1, 2}, {2, 3}})
	g.RemoveEdge(2, 1)
	if g.HasEdge(1, 2) {
		t.Fatal("edge 1-2 still present")
	}
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("RemoveEdge removed a node")
	}
}

func TestNodesSorted(t *testing.T) {
	g := New()
	for _, v := range []ID{9, 3, 7, 1} {
		g.AddNode(v)
	}
	got := g.Nodes()
	want := []ID{1, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Nodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", got, want)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{5, 9}, {5, 1}, {5, 3}})
	got := g.Neighbors(5)
	want := []ID{1, 3, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", got, want)
		}
	}
	closed := g.ClosedNeighbors(5)
	if len(closed) != 4 || closed[2] != 5 {
		t.Fatalf("ClosedNeighbors(5) = %v", closed)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{3, 1}, {2, 1}, {3, 2}})
	edges := g.Edges()
	want := [][2]ID{{1, 2}, {1, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestDistanceAndBFS(t *testing.T) {
	g := pathGraph(10)
	if d := g.Distance(0, 9); d != 9 {
		t.Fatalf("Distance(0,9) = %d, want 9", d)
	}
	if d := g.Distance(4, 4); d != 0 {
		t.Fatalf("Distance(4,4) = %d, want 0", d)
	}
	g.AddNode(100)
	if d := g.Distance(0, 100); d != -1 {
		t.Fatalf("Distance to unreachable = %d, want -1", d)
	}
	dist := g.BFSDistances(3)
	if dist[0] != 3 || dist[9] != 6 {
		t.Fatalf("BFSDistances wrong: %v", dist)
	}
	if _, ok := dist[100]; ok {
		t.Fatal("BFS reached disconnected node")
	}
}

func TestBall(t *testing.T) {
	g := pathGraph(10)
	got := g.Ball(5, 2)
	want := []ID{3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Ball(5,2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ball(5,2) = %v, want %v", got, want)
		}
	}
	if b := g.Ball(0, 0); len(b) != 1 || b[0] != 0 {
		t.Fatalf("Ball(0,0) = %v, want [0]", b)
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges([]ID{42}, [][2]ID{{1, 2}, {2, 3}, {10, 11}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 1 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 10 {
		t.Fatalf("second component %v", comps[1])
	}
	if len(comps[2]) != 1 || comps[2][0] != 42 {
		t.Fatalf("third component %v", comps[2])
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 3}})
	sub := g.InducedSubgraph([]ID{1, 2, 3, 99})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d, want 3", sub.NumNodes())
	}
	if !sub.HasEdge(1, 2) || !sub.HasEdge(2, 3) || !sub.HasEdge(1, 3) {
		t.Fatal("induced edges missing")
	}
	if sub.HasEdge(3, 4) || sub.HasNode(4) {
		t.Fatal("node outside induced set leaked in")
	}
}

func TestIsClique(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{1, 2}, {2, 3}, {1, 3}, {3, 4}})
	if !g.IsClique([]ID{1, 2, 3}) {
		t.Fatal("{1,2,3} should be a clique")
	}
	if g.IsClique([]ID{1, 2, 3, 4}) {
		t.Fatal("{1,2,3,4} should not be a clique")
	}
	if !g.IsClique([]ID{1}) || !g.IsClique(nil) {
		t.Fatal("trivial sets are cliques")
	}
}

func TestDiameter(t *testing.T) {
	if d := pathGraph(7).Diameter(); d != 6 {
		t.Fatalf("path diameter = %d, want 6", d)
	}
	g := New()
	g.AddNode(1)
	if d := g.Diameter(); d != 0 {
		t.Fatalf("singleton diameter = %d, want 0", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{1, 2}})
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.HasNode(3) {
		t.Fatal("mutating clone affected original")
	}
	if !g.Equal(FromEdges(nil, [][2]ID{{1, 2}})) {
		t.Fatal("original changed")
	}
}

func TestEqual(t *testing.T) {
	a := FromEdges(nil, [][2]ID{{1, 2}, {2, 3}})
	b := FromEdges(nil, [][2]ID{{2, 3}, {1, 2}})
	if !a.Equal(b) {
		t.Fatal("equal graphs reported unequal")
	}
	b.AddEdge(1, 3)
	if a.Equal(b) {
		t.Fatal("unequal graphs reported equal")
	}
}

func TestMaxDegree(t *testing.T) {
	g := FromEdges(nil, [][2]ID{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	if d := g.MaxDegree(); d != 3 {
		t.Fatalf("MaxDegree = %d, want 3", d)
	}
	if d := New().MaxDegree(); d != 0 {
		t.Fatalf("empty MaxDegree = %d, want 0", d)
	}
}

// randomGraph builds a GNP graph over n nodes with the given seed.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(ID(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(ID(i), ID(j))
			}
		}
	}
	return g
}

func TestPropertyBallMatchesBFS(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		g := randomGraph(20, 0.15, seed)
		r := int(rRaw % 6)
		dist := g.BFSDistances(0)
		ball := g.Ball(0, r)
		inBall := make(map[ID]bool, len(ball))
		for _, v := range ball {
			inBall[v] = true
		}
		for _, v := range g.Nodes() {
			d, reach := dist[v]
			want := reach && d <= r
			if inBall[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(25, 0.05, seed)
		seen := make(map[ID]int)
		for ci, comp := range g.Components() {
			for _, v := range comp {
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = ci
			}
		}
		if len(seen) != g.NumNodes() {
			return false
		}
		// Every edge stays within one component.
		for _, e := range g.Edges() {
			if seen[e[0]] != seen[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", New(), 0},
		{"path", pathGraph(10), 1},
		{"triangle", FromEdges(nil, [][2]ID{{0, 1}, {1, 2}, {0, 2}}), 2},
	}
	for _, c := range cases {
		got, order := c.g.Degeneracy()
		if got != c.want {
			t.Errorf("%s: degeneracy = %d, want %d", c.name, got, c.want)
		}
		if len(order) != c.g.NumNodes() {
			t.Errorf("%s: ordering covers %d of %d", c.name, len(order), c.g.NumNodes())
		}
	}
}

func TestDegeneracyOrderingProperty(t *testing.T) {
	g := randomGraph(40, 0.2, 11)
	d, order := g.Degeneracy()
	// In a degeneracy ordering, each node has ≤ d neighbors later on.
	pos := make(map[ID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		later := 0
		for _, u := range g.Neighbors(v) {
			if pos[u] > i {
				later++
			}
		}
		if later > d {
			t.Fatalf("node %d has %d later neighbors > degeneracy %d", v, later, d)
		}
	}
}
