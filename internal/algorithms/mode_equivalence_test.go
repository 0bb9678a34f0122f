package algorithms

import (
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Strategy equivalence on CVC: the shortcut's asynchronous drain and pull
// rounds are pure scheduling changes. CC converges to the min-label
// fixpoint and MIS's per-round decisions depend only on values fixed at
// round start, so every strategy must converge to bit-identical final
// outputs — across worker counts (the async scheduler's stealing and CAS
// paths are timing-sensitive) and host counts (remote targets must surface
// at reduce-sync exactly like buffered reduces). One host is
// pull-complete, so there label and MIS rounds pull under StrategyPull;
// multi-host CVC runs fall back to bsp.

func modeGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		// chain maximizes pointer-jumping depth — the async win case.
		"chain": gen.Chain(300, false, 3),
		"rmat":  gen.RMAT(8, 6, false, 2),
		"grid":  gen.Grid(12, 12, false, 7),
	}
}

func runCCMode(t *testing.T, g *graph.Graph, hosts, threads int, s Strategy,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) []graph.NodeID {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	c.Run(func(h *runtime.Host) { algo(h, Config{Strategy: s}, out) })
	return out
}

func TestCCModesConvergeIdentically(t *testing.T) {
	for gname, g := range modeGraphs() {
		want := graph.ReferenceComponents(g)
		for aname, algo := range ccAlgos() {
			for _, hosts := range []int{1, 2, 4, 8} {
				for _, threads := range []int{1, 3} {
					ref := runCCMode(t, g, hosts, threads, StrategyBSP, algo)
					for _, s := range []Strategy{StrategyAsync, StrategyPull} {
						got := runCCMode(t, g, hosts, threads, s, algo)
						for i := range ref {
							if got[i] != ref[i] {
								t.Fatalf("%s/%s/%dh/%dt/%s: node %d labeled %d, BSP labeled %d",
									gname, aname, hosts, threads, s, i, got[i], ref[i])
							}
							if got[i] != want[i] {
								t.Fatalf("%s/%s/%dh/%dt/%s: node %d labeled %d, reference %d",
									gname, aname, hosts, threads, s, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func runMISMode(t *testing.T, g *graph.Graph, hosts, threads int, s Strategy) []bool {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]bool, g.NumNodes())
	c.Run(func(h *runtime.Host) { MIS(h, Config{Strategy: s}, out) })
	return out
}

func TestMISModesConvergeIdentically(t *testing.T) {
	for gname, g := range modeGraphs() {
		for _, hosts := range []int{1, 2, 4, 8} {
			for _, threads := range []int{1, 3} {
				ref := runMISMode(t, g, hosts, threads, StrategyBSP)
				if !graph.IsValidMIS(g, ref) {
					t.Fatalf("%s/%dh/%dt: BSP produced invalid MIS", gname, hosts, threads)
				}
				got := runMISMode(t, g, hosts, threads, StrategyPull)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s/%dh/%dt/pull: node %d membership %v, BSP %v",
							gname, hosts, threads, i, got[i], ref[i])
					}
				}
			}
		}
	}
}
