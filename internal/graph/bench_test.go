package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	bld := NewBuilder(n)
	for i := 0; i < m; i++ {
		bld.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	return buildSymmetric(bld)
}

func BenchmarkBuildCSR(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	edges := make([]Edge, 100000)
	for i := range edges {
		edges[i] = Edge{Src: NodeID(r.Intn(10000)), Dst: NodeID(r.Intn(10000)), Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(10000)
		for _, e := range edges {
			bld.AddEdge(e.Src, e.Dst)
		}
		bld.Build()
	}
}

func BenchmarkNeighborIteration(b *testing.B) {
	g := benchGraph(b, 10000, 100000)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		n := NodeID(i % g.NumNodes())
		for _, v := range g.Neighbors(n) {
			sum += int(v)
		}
	}
	_ = sum
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 10000, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(NodeID(i%g.NumNodes()), NodeID((i*7)%g.NumNodes()))
	}
}

func BenchmarkReferenceComponents(b *testing.B) {
	g := benchGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceComponents(g)
	}
}
