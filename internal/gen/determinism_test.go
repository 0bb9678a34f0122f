package gen

import (
	"fmt"
	"reflect"
	"testing"

	"kimbap/internal/graph"
)

// The generators draw every candidate edge from its own counter-based PRNG
// stream, so output is a pure function of (parameters, seed): these tests
// pin bit-identity across worker counts, the property the parallel build
// and partition equivalence tests inherit when they share one instance.

func requireIdenticalGraphs(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: shape differs: %d/%d nodes, %d/%d edges",
			label, want.NumNodes(), got.NumNodes(), want.NumEdges(), got.NumEdges())
	}
	for n := 0; n < want.NumNodes(); n++ {
		v := graph.NodeID(n)
		if !reflect.DeepEqual(want.Neighbors(v), got.Neighbors(v)) {
			t.Fatalf("%s: node %d neighbors differ", label, n)
		}
		if !reflect.DeepEqual(want.EdgeWeights(v), got.EdgeWeights(v)) {
			t.Fatalf("%s: node %d weights differ", label, n)
		}
	}
}

func TestGeneratorsBitIdenticalAcrossWorkers(t *testing.T) {
	gens := map[string]func() *graph.Graph{
		"grid":        func() *graph.Graph { return Grid(13, 17, true, 5) },
		"rmat":        func() *graph.Graph { return RMAT(9, 6, true, 6) },
		"erdosrenyi":  func() *graph.Graph { return ErdosRenyi(300, 1500, true, 7) },
		"chain":       func() *graph.Graph { return Chain(64, true, 8) },
		"communities": func() *graph.Graph { return Communities(4, 40, 5, 2, true, 9) },
	}
	for name, mk := range gens {
		prev := SetWorkers(1)
		want := mk()
		for _, workers := range []int{2, 4, 8} {
			SetWorkers(workers)
			requireIdenticalGraphs(t, fmt.Sprintf("%s/workers=%d", name, workers), want, mk())
		}
		SetWorkers(prev)
	}
}

func TestPresetsBitIdenticalAcrossWorkers(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, p := range Presets {
		SetWorkers(1)
		want := BuildSmall(p)
		SetWorkers(3)
		requireIdenticalGraphs(t, string(p), want, BuildSmall(p))
	}
}

// TestGeneratorsMatchSerialChain holds each generator's build to the
// serial reference chain it replaced, fed the same fillColumns output:
// SymmetrizeSerial, DedupSerial where the generator removes duplicates,
// then BuildSerial. Grid, Chain and Star have no duplicates, so their
// chain skips DedupSerial, and matching it shows that BuildSymmetric's
// duplicate removal leaves them unchanged.
func TestGeneratorsMatchSerialChain(t *testing.T) {
	gens := []struct {
		name  string
		cs    candidates
		dedup bool
	}{
		{"grid", gridCandidates(13, 17, true, 5), false},
		{"rmat", rmatCandidates(9, 6, true, 6), true},
		{"erdosrenyi", erdosRenyiCandidates(300, 1500, true, 7), true},
		{"chain", chainCandidates(64, true, 8), false},
		{"star", starCandidates(50), false},
		{"communities", communitiesCandidates(4, 40, 5, 2, true, 9), true},
	}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, g := range gens {
		for _, workers := range []int{1, 4} {
			SetWorkers(workers)
			srcs, dsts, ws := fillColumns(g.cs.count, g.cs.weighted, g.cs.cand)
			b := graph.NewBuilder(g.cs.numNodes)
			for i := range srcs {
				if ws != nil {
					b.AddWeightedEdge(srcs[i], dsts[i], ws[i])
				} else {
					b.AddEdge(srcs[i], dsts[i])
				}
			}
			b.SymmetrizeSerial()
			if g.dedup {
				b.DedupSerial()
			}
			want := b.BuildSerial()
			got := g.cs.build()
			if want.Weighted() != got.Weighted() {
				t.Fatalf("%s/workers=%d: weighted %v, serial chain %v", g.name, workers, got.Weighted(), want.Weighted())
			}
			requireIdenticalGraphs(t, fmt.Sprintf("%s/workers=%d", g.name, workers), want, got)
		}
	}
}
