package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := FromEdges([]ID{42}, [][2]ID{{1, 2}, {2, 3}, {1, 3}})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatalf("round trip changed graph: %v vs %v", g, back)
	}
}

func TestReadJSONImplicitNodes(t *testing.T) {
	g, err := ReadJSON(strings.NewReader(`{"edges":[[5,7]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(5, 7) || g.NumNodes() != 2 {
		t.Fatalf("got %v", g)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("expected decode error")
	}
}
