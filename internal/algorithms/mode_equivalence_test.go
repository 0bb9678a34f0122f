package algorithms

import (
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Strategy equivalence on CVC: the shortcut's asynchronous drain and the
// adaptive policy are pure scheduling changes. CC converges to the
// min-label fixpoint and MIS's per-round decisions depend only on values
// fixed at round start, so every strategy must converge to bit-identical
// final outputs — across worker counts (the async scheduler's stealing
// and CAS paths are timing-sensitive) and host counts (remote targets
// must surface at reduce-sync exactly like buffered reduces). One host is
// pull-complete, so there adaptive label and MIS rounds pull.

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
					for _, s := range []Strategy{StrategyAsync, StrategyAdaptive} {
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
				got := runMISMode(t, g, hosts, threads, StrategyAdaptive)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s/%dh/%dt/adaptive: node %d membership %v, BSP %v",
							gname, hosts, threads, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// The adaptive strategy must actually exercise the async path where it is
// profitable: on a single host every target is local, so the first
// shortcut round probes async, and a converging CC run should keep it on.
// One host is also pull-complete, so the label rounds pull: CC-LP, which
// has no shortcut, pulls and never drains; CC-SV and CC-SCLP pull their
// label rounds and drain their shortcuts. The labels must still be the
// reference's.
func TestAdaptiveModeTraceUsesAsync(t *testing.T) {
	g := gen.Chain(400, false, 5)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 1, ThreadsPerHost: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name       string
		algo       func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats
		want, none []string
	}{
		{"CC-SV", CCSV, []string{"async", "pull"}, nil},
		{"CC-LP", CCLP, []string{"pull"}, []string{"async"}},
		{"CC-SCLP", CCSCLP, []string{"async", "pull"}, nil},
	} {
		out := make([]graph.NodeID, g.NumNodes())
		var rounds RoundStats
		c.Run(func(h *runtime.Host) {
			rounds = tc.algo(h, Config{Strategy: StrategyAdaptive, LogRounds: true}, out).PerRound
		})
		checkLabels(t, g, out, "adaptive "+tc.name)
		shapes := map[string]int{}
		for _, s := range rounds.Shape {
			shapes[s]++
		}
		for _, s := range tc.want {
			if shapes[s] == 0 {
				t.Fatalf("adaptive single-host %s never ran a %s round; trace %v", tc.name, s, rounds.Shape)
			}
		}
		for _, s := range tc.none {
			if shapes[s] != 0 {
				t.Fatalf("adaptive single-host %s ran a %s round; trace %v", tc.name, s, rounds.Shape)
			}
		}
	}
}
