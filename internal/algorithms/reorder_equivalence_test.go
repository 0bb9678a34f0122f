package algorithms

import (
	"math"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Reorder equivalence: vertex reordering (DESIGN.md §14) is a pure layout
// change. Property values stay in original-ID space (initOwn seeds
// original IDs; only value-as-address sites translate), so every
// algorithm's collected output — indexed by original ID — must be
// bit-identical with reordering on or off, for every policy, across the
// full execution matrix: dense and sparse rounds, both transports, and
// every host count the partitioner supports.

func reorderPolicies() []graph.ReorderPolicy {
	return []graph.ReorderPolicy{graph.ReorderDegree, graph.ReorderBlockedDegree}
}

func runCCReorder(t *testing.T, g *graph.Graph, rc runtime.Config, acfg Config,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) []graph.NodeID {
	t.Helper()
	c, err := runtime.NewCluster(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	c.Run(func(h *runtime.Host) { algo(h, acfg, out) })
	return out
}

// TestReorderEquivalenceCCSVFullMatrix pins CC-SV outputs across
// {off, degree, blocked-degree} × {dense, sparse} × {in-memory, TCP} ×
// {2, 4, 8} hosts. CC-SV exercises both trans-vertex addressing
// paths (hook targets and shortcut grandparent reads), so it is the
// matrix workhorse; the other algorithms get the policy sweep below.
func TestReorderEquivalenceCCSVFullMatrix(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	want := graph.ReferenceComponents(g)
	for _, tcp := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			for _, hosts := range []int{2, 4, 8} {
				rc := runtime.Config{
					NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.CVC, UseTCP: tcp,
				}
				acfg := Config{Dense: dense}
				base := runCCReorder(t, g, rc, acfg, CCSV)
				for i := range base {
					if base[i] != want[i] {
						t.Fatalf("tcp=%v/dense=%v/%dh: baseline node %d labeled %d, reference %d",
							tcp, dense, hosts, i, base[i], want[i])
					}
				}
				for _, pol := range reorderPolicies() {
					rrc := rc
					rrc.Reorder = pol
					got := runCCReorder(t, g, rrc, acfg, CCSV)
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("tcp=%v/dense=%v/%dh/%s: node %d labeled %d, unreordered labeled %d",
								tcp, dense, hosts, pol, i, got[i], base[i])
						}
					}
				}
			}
		}
	}
}

// TestReorderEquivalenceAllAlgorithms sweeps every flat SPMD algorithm
// (all CC variants, MIS, MSF) and every strategy under both reorder
// policies: outputs must match the unreordered run bit for bit.
func TestReorderEquivalenceAllAlgorithms(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chain": gen.Chain(300, true, 3),
		"rmat":  gen.RMAT(8, 6, true, 2),
		"grid":  gen.Grid(12, 12, true, 7),
	}
	for gname, g := range graphs {
		for _, hosts := range []int{2, 4} {
			rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.CVC}

			for aname, algo := range ccAlgos() {
				for _, s := range []Strategy{StrategyBSP, StrategyAsync, StrategyPull} {
					base := runCCReorder(t, g, rc, Config{Strategy: s}, algo)
					for _, pol := range reorderPolicies() {
						rrc := rc
						rrc.Reorder = pol
						got := runCCReorder(t, g, rrc, Config{Strategy: s}, algo)
						for i := range base {
							if got[i] != base[i] {
								t.Fatalf("%s/%s/%dh/%s/%s: node %d labeled %d, unreordered labeled %d",
									gname, aname, hosts, s, pol, i, got[i], base[i])
							}
						}
					}
				}
			}

			baseMIS := runMISReorder(t, g, rc)
			if !graph.IsValidMIS(g, baseMIS) {
				t.Fatalf("%s/%dh: unreordered MIS invalid", gname, hosts)
			}
			baseComp, baseStats := runMSFReorder(t, g, rc)
			for _, pol := range reorderPolicies() {
				rrc := rc
				rrc.Reorder = pol
				gotMIS := runMISReorder(t, g, rrc)
				for i := range baseMIS {
					if gotMIS[i] != baseMIS[i] {
						t.Fatalf("%s/%dh/%s: MIS membership of node %d = %v, unreordered %v",
							gname, hosts, pol, i, gotMIS[i], baseMIS[i])
					}
				}
				gotComp, gotStats := runMSFReorder(t, g, rrc)
				// The forest (edge set and labels) is bit-identical; the
				// weight is a float sum whose per-thread accumulation order
				// follows the layout, so allow round-off as the host-count
				// determinism test does.
				if math.Abs(gotStats.TotalWeight-baseStats.TotalWeight) > 1e-9*baseStats.TotalWeight ||
					gotStats.ForestEdges != baseStats.ForestEdges {
					t.Fatalf("%s/%dh/%s: MSF weight/edges = %v/%d, unreordered %v/%d",
						gname, hosts, pol, gotStats.TotalWeight, gotStats.ForestEdges,
						baseStats.TotalWeight, baseStats.ForestEdges)
				}
				for i := range baseComp {
					if gotComp[i] != baseComp[i] {
						t.Fatalf("%s/%dh/%s: MSF component of node %d = %d, unreordered %d",
							gname, hosts, pol, i, gotComp[i], baseComp[i])
					}
				}
			}
		}
	}
}

func runMISReorder(t *testing.T, g *graph.Graph, rc runtime.Config) []bool {
	t.Helper()
	c, err := runtime.NewCluster(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]bool, g.NumNodes())
	c.Run(func(h *runtime.Host) { MIS(h, Config{}, out) })
	return out
}

func runMSFReorder(t *testing.T, g *graph.Graph, rc runtime.Config) ([]graph.NodeID, MSFStats) {
	t.Helper()
	c, err := runtime.NewCluster(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	var stats MSFStats
	c.Run(func(h *runtime.Host) {
		s := MSF(h, Config{}, out)
		if h.Rank == 0 {
			stats = s
		}
	})
	return out, stats
}
