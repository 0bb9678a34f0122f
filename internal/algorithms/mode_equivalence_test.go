package algorithms

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Strategy equivalence: the shortcut's asynchronous drain is a pure
// scheduling change. CC converges to the min-label fixpoint, so both
// strategies must converge to bit-identical labels — across worker counts
// (the async scheduler's stealing and CAS paths are timing-sensitive),
// host counts (remote targets must surface at reduce-sync exactly like
// buffered reduces), partitions (CVC and IEC) and transports. MIS has no
// async round, so its output must not depend on the strategy at all.

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
					got := runCCMode(t, g, hosts, threads, StrategyAsync, algo)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("%s/%s/%dh/%dt/async: node %d labeled %d, BSP labeled %d",
								gname, aname, hosts, threads, i, got[i], ref[i])
						}
						if got[i] != want[i] {
							t.Fatalf("%s/%s/%dh/%dt/async: node %d labeled %d, reference %d",
								gname, aname, hosts, threads, i, got[i], want[i])
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
				t.Run(fmt.Sprintf("%s/%dh/%dt", gname, hosts, threads), func(t *testing.T) {
					ref := runMISMode(t, g, hosts, threads, StrategyBSP)
					if !graph.IsValidMIS(g, ref) {
						t.Fatal("BSP produced invalid MIS")
					}
					got := runMISMode(t, g, hosts, threads, StrategyAsync)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("async node %d membership %v, BSP %v", i, got[i], ref[i])
						}
					}
				})
			}
		}
	}
}

func runCCOn(t *testing.T, g *graph.Graph, rc runtime.Config, acfg Config,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) ([]graph.NodeID, CCStats) {
	t.Helper()
	out, stats := runCCOnAll(t, g, rc, acfg, algo)
	return out, stats[0]
}

// runCCOnAll is runCCOn returning every host's stats, indexed by rank.
func runCCOnAll(t *testing.T, g *graph.Graph, rc runtime.Config, acfg Config,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) ([]graph.NodeID, []CCStats) {
	t.Helper()
	c, err := runtime.NewCluster(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	stats := make([]CCStats, rc.NumHosts)
	c.Run(func(h *runtime.Host) { stats[h.Rank] = algo(h, acfg, out) })
	return out, stats
}

// ranShape reports whether any host's round log holds a round of shape.
func ranShape(stats []CCStats, shape string) bool {
	for _, st := range stats {
		if slices.Contains(st.PerRound.Shape, shape) {
			return true
		}
	}
	return false
}

// TestModeEquivalenceCCSVIECMatrix pins CC-SV labels under async against
// bsp across {dense, sparse} × {in-memory, TCP} × {2, 4, 8} hosts on an
// IEC partition. Dense and sparse rounds exercise both reduce section
// body forms.
func TestModeEquivalenceCCSVIECMatrix(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	want := graph.ReferenceComponents(g)
	for _, tcp := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			for _, hosts := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("tcp=%v/dense=%v/%dh", tcp, dense, hosts), func(t *testing.T) {
					rc := runtime.Config{
						NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.IEC, UseTCP: tcp,
					}
					base, _ := runCCOn(t, g, rc, Config{Dense: dense}, CCSV)
					for i := range base {
						if base[i] != want[i] {
							t.Fatalf("bsp node %d labeled %d, reference %d", i, base[i], want[i])
						}
					}
					got, _ := runCCOn(t, g, rc, Config{Dense: dense, Strategy: StrategyAsync}, CCSV)
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("async node %d labeled %d, bsp labeled %d", i, got[i], base[i])
						}
					}
				})
			}
		}
	}
}

// TestModeEquivalenceCCLPRounds additionally pins the round counts of
// CC-LP and CC-SCLP on IEC partitions. CC-LP has no round that drains, so
// its counts are always pinned. CC-SCLP's shortcut drains under the async
// strategy, and an async round cascades within the round, so a run in
// which some host drained pins its labels only. Dense execution has
// nothing to drain.
func TestModeEquivalenceCCLPRounds(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":  gen.RMAT(9, 6, false, 42),
		"grid":  gen.Grid(16, 16, false, 7),
		"chain": gen.Chain(120, false, 3),
	}
	for gname, g := range graphs {
		for _, hosts := range []int{1, 2, 4, 8} {
			rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.IEC}
			for aname, algo := range map[string]func(*runtime.Host, Config, []graph.NodeID) CCStats{
				"CC-LP": CCLP, "CC-SCLP": CCSCLP,
			} {
				for _, dense := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%dh/dense=%v", gname, aname, hosts, dense), func(t *testing.T) {
						base, baseStats := runCCOn(t, g, rc, Config{Dense: dense}, algo)
						got, all := runCCOnAll(t, g, rc, Config{Dense: dense, Strategy: StrategyAsync, LogRounds: true}, algo)
						for i := range base {
							if got[i] != base[i] {
								t.Fatalf("async node %d labeled %d, bsp labeled %d", i, got[i], base[i])
							}
						}
						drained := ranShape(all, "async")
						if drained && (dense || aname == "CC-LP") {
							t.Fatal("async drained with no shortcut to drain")
						}
						if stats := all[0]; !drained && (stats.HookRounds != baseStats.HookRounds ||
							stats.ShortcutRounds != baseStats.ShortcutRounds) {
							t.Fatalf("async took %d+%d rounds, bsp took %d+%d",
								stats.HookRounds, stats.ShortcutRounds, baseStats.HookRounds, baseStats.ShortcutRounds)
						}
					})
				}
			}
		}
	}
}

// TestModeEquivalenceMISIEC pins MIS under async against bsp on IEC
// partitions: MIS has no round that drains, so the selected set, its size
// and the round count must all match the bsp run exactly.
func TestModeEquivalenceMISIEC(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(8, 6, false, 2),
		"grid": gen.Grid(12, 12, false, 7),
		"star": gen.Star(60),
	}
	for gname, g := range graphs {
		for _, hosts := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dh", gname, hosts), func(t *testing.T) {
				rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.IEC}
				run := func(s Strategy) ([]bool, MISStats) {
					c, err := runtime.NewCluster(g, rc)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					out := make([]bool, g.NumNodes())
					var stats MISStats
					c.Run(func(h *runtime.Host) {
						st := MIS(h, Config{Strategy: s}, out)
						if h.Rank == 0 {
							stats = st
						}
					})
					return out, stats
				}
				base, baseStats := run(StrategyBSP)
				if !graph.IsValidMIS(g, base) {
					t.Fatal("bsp produced an invalid MIS")
				}
				got, stats := run(StrategyAsync)
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("async membership of node %d = %v, bsp %v", i, got[i], base[i])
					}
				}
				if stats.Rounds != baseStats.Rounds || stats.Size != baseStats.Size {
					t.Fatalf("async rounds/size = %d/%d, bsp %d/%d",
						stats.Rounds, stats.Size, baseStats.Rounds, baseStats.Size)
				}
			})
		}
	}
}

// TestUnknownStrategyPanics: a strategy no phase knows — "pull" among
// them, since pull rounds are deleted — fails loudly in every algorithm
// that reads the field, including those with no phase that drains.
func TestUnknownStrategyPanics(t *testing.T) {
	g := gen.Chain(16, false, 1)
	for name, run := range map[string]func(h *runtime.Host, cfg Config){
		"CC-SV":   func(h *runtime.Host, cfg Config) { CCSV(h, cfg, make([]graph.NodeID, g.NumNodes())) },
		"CC-LP":   func(h *runtime.Host, cfg Config) { CCLP(h, cfg, make([]graph.NodeID, g.NumNodes())) },
		"CC-SCLP": func(h *runtime.Host, cfg Config) { CCSCLP(h, cfg, make([]graph.NodeID, g.NumNodes())) },
		"MIS":     func(h *runtime.Host, cfg Config) { MIS(h, cfg, make([]bool, g.NumNodes())) },
	} {
		t.Run(name, func(t *testing.T) {
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 1, ThreadsPerHost: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `unknown strategy "pull"`) {
					t.Fatalf("recovered %v, want an unknown-strategy panic", r)
				}
			}()
			c.Run(func(h *runtime.Host) { run(h, Config{Strategy: "pull"}) })
		})
	}
}

// TestRoundShapes pins the shape of every round under the async strategy:
// label rounds (CC-SV's hook, CC-SCLP's propagation pass) run bsp and
// every shortcut round drains — on every host, with labels equal to the
// reference. The cases cover a single host, a 4-host R-MAT and a 4-host
// chain under IEC, and a 1-host chain; the shortcut drains on any
// partition, so 4-host R-MAT and chain runs under CVC and OEC are pinned
// too.
func TestRoundShapes(t *testing.T) {
	rmat, chain := gen.RMAT(8, 6, false, 2), gen.Chain(300, false, 3)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		hosts int
		pol   partition.Policy
	}{
		{"rmat", rmat, 1, partition.IEC},
		{"rmat", rmat, 4, partition.IEC},
		{"chain", chain, 4, partition.IEC},
		{"chain", chain, 1, partition.IEC},
		{"rmat-cvc", rmat, 4, partition.CVC},
		{"chain-cvc", chain, 4, partition.CVC},
		{"rmat-oec", rmat, 4, partition.OEC},
		{"chain-oec", chain, 4, partition.OEC},
	} {
		for aname, algo := range map[string]func(*runtime.Host, Config, []graph.NodeID) CCStats{
			"CC-SV": CCSV, "CC-SCLP": CCSCLP,
		} {
			t.Run(fmt.Sprintf("%s/%s/%dh/%s", aname, tc.name, tc.hosts, StrategyAsync), func(t *testing.T) {
				rc := runtime.Config{NumHosts: tc.hosts, ThreadsPerHost: 3, Policy: tc.pol}
				got, all := runCCOnAll(t, tc.g, rc, Config{Strategy: StrategyAsync, LogRounds: true}, algo)
				checkLabels(t, tc.g, got, aname)
				for rank, st := range all {
					for r, shape := range st.PerRound.Shape {
						want := "async"
						if st.PerRound.Hook[r] {
							want = "bsp"
						}
						if shape != want {
							t.Fatalf("host %d round %d (label=%v) ran %s, want %s; trace %v",
								rank, r, st.PerRound.Hook[r], shape, want, st.PerRound.Shape)
						}
					}
				}
			})
		}
	}
}
