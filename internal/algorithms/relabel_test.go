package algorithms

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Node IDs are the input's from file to output, so an algorithm's answer
// may depend on the input's numbering only through the names it reports.
// TestOutputsFollowRelabel renumbers each graph hubs-first and in reverse:
// the master ranges, mirror sets and every value-as-address read (hook
// targets, shortcut grandparents, MSF roots) land differently than in the
// generator's layout, and each answer must still match the reference on
// the renumbered graph. CC runs under both strategies and with dense
// rounds, whose reduce sections take the other body form.

// relabel returns g with node v renamed perm[v]; every edge keeps its
// weight.
func relabel(g *graph.Graph, perm []graph.NodeID) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		lo, hi := g.EdgeRange(graph.NodeID(v))
		for e := lo; e < hi; e++ {
			if g.Weighted() {
				b.AddWeightedEdge(perm[v], perm[g.Dst(e)], g.Weight(e))
			} else {
				b.AddEdge(perm[v], perm[g.Dst(e)])
			}
		}
	}
	return b.BuildSerial()
}

// relabelLayouts returns two renumberings of g: descending degree (ties
// by ID), and reversed IDs.
func relabelLayouts(g *graph.Graph) map[string][]graph.NodeID {
	n := g.NumNodes()
	ids := make([]graph.NodeID, n)
	for v := range ids {
		ids[v] = graph.NodeID(v)
	}
	slices.SortStableFunc(ids, func(a, b graph.NodeID) int { return g.Degree(b) - g.Degree(a) })
	degree := make([]graph.NodeID, n)
	reversed := make([]graph.NodeID, n)
	for k, v := range ids {
		degree[v] = graph.NodeID(k)
		reversed[k] = graph.NodeID(n - 1 - k)
	}
	return map[string][]graph.NodeID{"degree": degree, "reversed": reversed}
}

func TestOutputsFollowRelabel(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chain": gen.Chain(300, true, 3),
		"rmat":  gen.RMAT(8, 6, true, 2),
		"grid":  gen.Grid(12, 12, true, 7),
	}
	for gname, g := range graphs {
		wantWeight := graph.ReferenceMSFWeight(g)
		for lname, perm := range relabelLayouts(g) {
			rg := relabel(g, perm)
			wantEdges := int64(rg.NumNodes() - graph.NumComponents(graph.ReferenceComponents(rg)))
			for _, hosts := range []int{2, 4} {
				prefix := fmt.Sprintf("%s/%s/hosts=%d", gname, lname, hosts)
				for aname, algo := range ccAlgos() {
					for _, threads := range []int{1, 3} {
						t.Run(fmt.Sprintf("%s/%s/%dt", prefix, aname, threads), func(t *testing.T) {
							rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC}
							got, _ := runCCOn(t, rg, rc, Config{}, algo)
							checkLabels(t, rg, got, aname)
						})
					}
					t.Run(fmt.Sprintf("%s/%s/dense", prefix, aname), func(t *testing.T) {
						got := runCC(t, rg, hosts, partition.CVC, Config{dense: true}, algo)
						checkLabels(t, rg, got, aname)
					})
				}
				t.Run(prefix+"/MIS", func(t *testing.T) {
					set, _ := runMIS(t, rg, hosts, Config{})
					if !graph.IsValidMIS(rg, set) {
						t.Fatal("MIS invalid on the relabeled graph")
					}
				})
				t.Run(prefix+"/MSF", func(t *testing.T) {
					comp, stats := runMSF(t, rg, hosts, Config{})
					if math.Abs(stats.TotalWeight-wantWeight) > 1e-6*math.Max(1, wantWeight) {
						t.Fatalf("MSF weight %.6f, want %.6f", stats.TotalWeight, wantWeight)
					}
					if stats.ForestEdges != wantEdges {
						t.Fatalf("forest edges %d, want %d", stats.ForestEdges, wantEdges)
					}
					checkSamePartition(t, rg, comp, "MSF components")
				})
			}
		}
	}
}
