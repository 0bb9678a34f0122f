package graph

import "testing"

func TestInducedSubgraph(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3; induce on {0,1,3}.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.Symmetrize()
	g := b.Build()
	sub, mapping := InducedSubgraph(g, []NodeID{0, 1, 3})
	if sub.NumNodes() != 3 {
		t.Fatalf("nodes = %d", sub.NumNodes())
	}
	// Only the 0-1 edge survives (both directions).
	if sub.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 0) {
		t.Fatal("0-1 edge missing")
	}
	if mapping[2] != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
}

func TestInducedSubgraphRejectsDuplicates(t *testing.T) {
	g := mkTriangle(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate nodes accepted")
		}
	}()
	InducedSubgraph(g, []NodeID{0, 0})
}

func TestDegreeHistogram(t *testing.T) {
	// Star with 5 leaves: hub degree 5, leaves degree 1.
	b := NewBuilder(6)
	for i := 1; i <= 5; i++ {
		b.AddEdge(0, NodeID(i))
	}
	b.Symmetrize()
	g := b.Build()
	hist := DegreeHistogram(g)
	if hist[5] != 1 || hist[1] != 5 {
		t.Fatalf("hist = %v", hist)
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != g.NumNodes() {
		t.Fatalf("histogram covers %d nodes", total)
	}
}
