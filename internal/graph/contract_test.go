package graph_test

import (
	"fmt"
	"math"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

// contractMap is the map-keyed contraction Contract replaced, kept as its
// oracle: coarse IDs by first appearance, one map entry per (cs, cd) pair
// summed in node-then-edge order, and Builder.Build to sort the rows.
func contractMap(g *graph.Graph, assign []graph.NodeID) (*graph.Graph, map[graph.NodeID]graph.NodeID) {
	remap := make(map[graph.NodeID]graph.NodeID)
	for _, c := range assign {
		if _, ok := remap[c]; !ok {
			remap[c] = graph.NodeID(len(remap))
		}
	}
	agg := make(map[[2]graph.NodeID]float64)
	for n := 0; n < g.NumNodes(); n++ {
		cs := remap[assign[n]]
		lo, hi := g.EdgeRange(graph.NodeID(n))
		for e := lo; e < hi; e++ {
			cd := remap[assign[g.Dst(e)]]
			agg[[2]graph.NodeID{cs, cd}] += g.Weight(e)
		}
	}
	b := graph.NewBuilder(len(remap))
	for k, w := range agg {
		b.AddWeightedEdge(k[0], k[1], w)
	}
	return b.Build(), remap
}

// TestContractMatchesMapOracle checks Contract against the map-keyed
// oracle bit for bit — every row's destinations and weight bits, and the
// remap — on identity, all-one, planted and pseudo-random clusterings of a
// weighted community graph and an unweighted grid.
func TestContractMatchesMapOracle(t *testing.T) {
	graphs := []struct {
		name    string
		g       *graph.Graph
		planted func(v int) graph.NodeID
	}{
		{"communities", gen.Communities(6, 40, 6, 2, true, 7), func(v int) graph.NodeID {
			// Label each planted block by its last member, so labels are
			// not in first-appearance order.
			return graph.NodeID(v/40*40 + 39)
		}},
		{"grid", gen.Grid(12, 17, false, 3), func(v int) graph.NodeID {
			return graph.NodeID(v / 17 * 17) // one cluster per row
		}},
	}
	for _, tg := range graphs {
		n := tg.g.NumNodes()
		rng := uint64(0x9e3779b97f4a7c15)
		for _, ta := range []struct {
			name  string
			label func(v int) graph.NodeID
		}{
			{"identity", func(v int) graph.NodeID { return graph.NodeID(v) }},
			{"all-one", func(int) graph.NodeID { return graph.NodeID(n - 1) }},
			{"planted", tg.planted},
			{"random", func(int) graph.NodeID {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return graph.NodeID(rng % uint64(n/5))
			}},
		} {
			t.Run(tg.name+"/"+ta.name, func(t *testing.T) {
				assign := make([]graph.NodeID, n)
				for v := range assign {
					assign[v] = ta.label(v)
				}
				got, remap := graph.Contract(tg.g, assign)
				want, wantRemap := contractMap(tg.g, assign)
				if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
					got.Weighted() != want.Weighted() {
					t.Fatalf("shape %d nodes/%d edges/weighted %v, want %d/%d/%v",
						got.NumNodes(), got.NumEdges(), got.Weighted(),
						want.NumNodes(), want.NumEdges(), want.Weighted())
				}
				for v := 0; v < got.NumNodes(); v++ {
					glo, ghi := got.EdgeRange(graph.NodeID(v))
					wlo, whi := want.EdgeRange(graph.NodeID(v))
					if glo != wlo || ghi != whi {
						t.Fatalf("row %d spans [%d,%d), want [%d,%d)", v, glo, ghi, wlo, whi)
					}
					for e := glo; e < ghi; e++ {
						if got.Dst(e) != want.Dst(e) ||
							math.Float64bits(got.Weight(e)) != math.Float64bits(want.Weight(e)) {
							t.Fatalf("row %d edge %d: (%d, %v), want (%d, %v)",
								v, e-glo, got.Dst(e), got.Weight(e), want.Dst(e), want.Weight(e))
						}
					}
				}
				if len(remap) != n {
					t.Fatalf("remap length %d, want %d", len(remap), n)
				}
				for c, cs := range remap {
					if w, ok := wantRemap[graph.NodeID(c)]; (ok && cs != w) || (!ok && cs != graph.InvalidNode) {
						t.Fatalf("remap[%d] = %d, want %d (used %v)", c, cs, w, ok)
					}
				}
			})
		}
	}
}

func TestContractPreservesWeight(t *testing.T) {
	g := gen.Communities(6, 30, 5, 1, true, 21)
	assign := make([]graph.NodeID, g.NumNodes())
	for i := range assign {
		assign[i] = graph.NodeID(i % 7) // arbitrary grouping
	}
	coarse, remap := graph.Contract(g, assign)
	if coarse.NumNodes() != 7 {
		t.Fatalf("coarse nodes = %d, want 7", coarse.NumNodes())
	}
	for c := 0; c < 7; c++ {
		if remap[c] != graph.NodeID(c) {
			t.Fatalf("remap[%d] = %d", c, remap[c])
		}
	}
	if math.Abs(coarse.TotalWeight()-g.TotalWeight()) > 1e-6 {
		t.Fatalf("contraction lost weight: %v vs %v",
			coarse.TotalWeight(), g.TotalWeight())
	}
}

func TestContractIdentityKeepsStructure(t *testing.T) {
	g := gen.Grid(4, 4, true, 1)
	assign := make([]graph.NodeID, g.NumNodes())
	for i := range assign {
		assign[i] = graph.NodeID(i)
	}
	coarse, _ := graph.Contract(g, assign)
	if coarse.NumNodes() != g.NumNodes() || coarse.NumEdges() != g.NumEdges() {
		t.Fatal("identity contraction changed the graph")
	}
}

// TestAccumulator checks first-touch key order, per-key sums, that Reset
// clears every touched slot, and that a warm accumulator's
// Add/Get/Reset cycle allocates nothing.
func TestAccumulator(t *testing.T) {
	a := graph.NewAccumulator(10)
	for _, kv := range []struct {
		k graph.NodeID
		w float64
	}{{7, 1}, {2, 0.5}, {7, 2}, {0, 4}, {2, 0.25}} {
		a.Add(kv.k, kv.w)
	}
	wantKeys, wantVals := []graph.NodeID{7, 2, 0}, []float64{3, 0.75, 4}
	if fmt.Sprint(a.Keys()) != fmt.Sprint(wantKeys) || fmt.Sprint(a.Vals()) != fmt.Sprint(wantVals) {
		t.Fatalf("keys %v vals %v, want %v %v", a.Keys(), a.Vals(), wantKeys, wantVals)
	}
	if a.Get(7) != 3 || a.Get(5) != 0 {
		t.Fatalf("Get(7) = %v, Get(5) = %v", a.Get(7), a.Get(5))
	}
	a.Reset()
	if len(a.Keys()) != 0 || a.Get(7) != 0 || a.Get(2) != 0 {
		t.Fatalf("after Reset: keys %v, Get(7) = %v", a.Keys(), a.Get(7))
	}
	a.Add(2, 1)
	if fmt.Sprint(a.Keys()) != "[2]" || a.Get(2) != 1 {
		t.Fatalf("reuse after Reset: keys %v, Get(2) = %v", a.Keys(), a.Get(2))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := graph.NodeID(0); k < 10; k++ {
			a.Add(9-k, 1)
			a.Add(k, 1)
		}
		_ = a.Get(3)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm Add/Reset cycle allocates %v objects", allocs)
	}
}
