package algorithms

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kimbap/internal/baselines/galois"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// runCC executes one of the CC algorithms on a fresh cluster and returns
// the assembled global labels.
func runCC(t *testing.T, g *graph.Graph, hosts int, pol partition.Policy, cfg Config,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) []graph.NodeID {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: 3, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cfg.Variant == npm.MC && cfg.Store == nil {
		cfg.Store = kvstore.NewCluster(hosts, hosts)
	}
	out := make([]graph.NodeID, g.NumNodes())
	c.Run(func(h *runtime.Host) { algo(h, cfg, out) })
	return out
}

func checkLabels(t *testing.T, g *graph.Graph, got []graph.NodeID, name string) {
	t.Helper()
	want := graph.ReferenceComponents(g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d labeled %d, want %d", name, i, got[i], want[i])
		}
	}
}

func ccAlgos() map[string]func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	return map[string]func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats{
		"CC-SV":   CCSV,
		"CC-LP":   CCLP,
		"CC-SCLP": CCSCLP,
	}
}

func TestCCAlgorithmsMatchReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":  gen.Grid(10, 10, false, 1),
		"rmat":  gen.RMAT(8, 6, false, 2),
		"chain": gen.Chain(64, false, 3),
		"er":    gen.ErdosRenyi(150, 120, false, 4), // likely several components
	}
	for gname, g := range graphs {
		for aname, algo := range ccAlgos() {
			for _, hosts := range []int{1, 2, 4} {
				got := runCC(t, g, hosts, partition.CVC, Config{}, algo)
				t.Run(gname+"/"+aname, func(t *testing.T) {
					checkLabels(t, g, got, aname)
				})
			}
		}
	}
}

func TestCCAllPolicies(t *testing.T) {
	g := gen.RMAT(7, 4, false, 5)
	for _, pol := range partition.Policies {
		got := runCC(t, g, 3, pol, Config{}, CCSV)
		checkLabels(t, g, got, "CC-SV/"+string(pol))
	}
}

func TestCCSVAllVariants(t *testing.T) {
	g := gen.Grid(8, 8, false, 1)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			got := runCC(t, g, 3, partition.CVC, Config{Variant: v}, CCSV)
			checkLabels(t, g, got, "CC-SV")
		})
	}
}

func TestCCLPAllVariants(t *testing.T) {
	g := gen.Grid(6, 6, false, 1)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			got := runCC(t, g, 2, partition.OEC, Config{Variant: v}, CCLP)
			checkLabels(t, g, got, "CC-LP")
		})
	}
}

func TestCCStatsPopulated(t *testing.T) {
	g := gen.Chain(100, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	stats := make([]CCStats, 2)
	c.Run(func(h *runtime.Host) { stats[h.Rank] = CCSV(h, Config{}, out) })
	if stats[0].HookRounds == 0 || stats[0].ShortcutRounds == 0 {
		t.Fatalf("stats not populated: %+v", stats[0])
	}
	// Pointer jumping should need far fewer rounds than the chain length.
	if stats[0].OuterRounds > 20 {
		t.Fatalf("CC-SV took %d outer rounds on a 100-chain", stats[0].OuterRounds)
	}
}

// TestCCConvergedReportsCutoff checks that a MaxRounds or MaxLevels cut-off
// does not pass as convergence, for the CC algorithms, MIS, MSF, Louvain
// and Leiden: on a 4096-node chain a cut-off run (one round: a CC outer
// round, a Boruvka or an MIS round) cannot finish, so every host reports
// Converged false, while the default cap lets each run to quiescence,
// reporting true with the reference output.
func TestCCConvergedReportsCutoff(t *testing.T) {
	chain, wchain := gen.Chain(4096, false, 1), gen.Chain(4096, true, 1)
	type runFunc func(h *runtime.Host, cfg Config) bool
	type convergeCase struct {
		name string
		g    *graph.Graph
		cut  int
		// start allocates fresh outputs and returns the SPMD body, which
		// reports the host's Converged flag, and the reference check of
		// the outputs it fills.
		start func() (runFunc, func(t *testing.T))
	}
	var cases []convergeCase
	for name, algo := range ccAlgos() {
		cases = append(cases, convergeCase{name, chain, 1, func() (runFunc, func(t *testing.T)) {
			out := make([]graph.NodeID, chain.NumNodes())
			return func(h *runtime.Host, cfg Config) bool { return algo(h, cfg, out).Converged },
				func(t *testing.T) { checkLabels(t, chain, out, name) }
		}})
	}
	cases = append(cases, convergeCase{"MIS", chain, 1, func() (runFunc, func(t *testing.T)) {
		out := make([]bool, chain.NumNodes())
		return func(h *runtime.Host, cfg Config) bool { return MIS(h, cfg, out).Converged },
			func(t *testing.T) {
				if !slices.Equal(out, galois.MIS(chain, 1)) {
					t.Error("MIS: set differs from the sequential priority-order reference")
				}
			}
	}}, convergeCase{"MSF", wchain, 1, func() (runFunc, func(t *testing.T)) {
		comp := make([]graph.NodeID, wchain.NumNodes())
		var weight float64
		return func(h *runtime.Host, cfg Config) bool {
				st := MSF(h, cfg, comp)
				if h.Rank == 0 {
					weight = st.TotalWeight
				}
				return st.Converged
			}, func(t *testing.T) {
				checkSamePartition(t, wchain, comp, "MSF")
				if want := graph.ReferenceMSFWeight(wchain); math.Abs(weight-want) > 1e-6*math.Max(1, want) {
					t.Errorf("MSF: forest weight %v, reference %v", weight, want)
				}
			}
	}})
	for _, tc := range cases {
		for _, maxRounds := range []int{tc.cut, 0} {
			c, err := runtime.NewCluster(tc.g, runtime.Config{NumHosts: 2, ThreadsPerHost: 2})
			if err != nil {
				t.Fatal(err)
			}
			run, check := tc.start()
			converged := make([]bool, 2)
			c.Run(func(h *runtime.Host) { converged[h.Rank] = run(h, Config{MaxRounds: maxRounds}) })
			c.Close()
			for rank, got := range converged {
				if want := maxRounds == 0; got != want {
					t.Errorf("%s MaxRounds=%d host %d: Converged = %v, want %v",
						tc.name, maxRounds, rank, got, want)
				}
			}
			if maxRounds == 0 {
				check(t)
			}
		}
	}
	// Louvain and Leiden are cut off by levels or by local-moving rounds:
	// on a planted-partition graph the first level moves nodes, so
	// MaxLevels 1 stops while the level loop still has work, and MaxIters
	// 1 stops the first level's local moving while its first round still
	// moved nodes; the default runs on until a level moves nothing.
	communities := gen.Communities(8, 40, 6, 1, true, 3)
	for _, cd := range []struct {
		name string
		run  func(*graph.Graph, runtime.Config, Config, CDOptions) (CDResult, error)
	}{{"LV", Louvain}, {"LD", Leiden}} {
		for _, opts := range []CDOptions{{MaxLevels: 1}, {MaxIters: 1}, {}} {
			res, err := cd.run(communities, runtime.Config{NumHosts: 2, ThreadsPerHost: 2},
				Config{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := opts == (CDOptions{}); res.Converged != want {
				t.Errorf("%s %+v: Converged = %v after %d levels, %d rounds, want %v",
					cd.name, opts, res.Converged, res.Levels, res.Rounds, want)
			}
		}
	}
}

func TestCCLPRoundsScaleWithDiameter(t *testing.T) {
	// LP needs ~diameter rounds; SV pointer jumping needs ~log rounds.
	g := gen.Chain(128, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	var lp, sv CCStats
	c.Run(func(h *runtime.Host) {
		s := CCLP(h, Config{}, out)
		if h.Rank == 0 {
			lp = s
		}
	})
	c2, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Run(func(h *runtime.Host) {
		s := CCSV(h, Config{}, out)
		if h.Rank == 0 {
			sv = s
		}
	})
	totalSV := sv.HookRounds + sv.ShortcutRounds
	if lp.HookRounds <= totalSV {
		t.Fatalf("expected LP rounds (%d) to exceed SV rounds (%d) on a chain",
			lp.HookRounds, totalSV)
	}
}

func TestTable2Registry(t *testing.T) {
	if len(Table2) != 7 {
		t.Fatalf("Table 2 lists 7 applications, got %d", len(Table2))
	}
	kinds := map[string]OperatorKind{}
	for _, k := range Table2 {
		kinds[k.Name] = k
	}
	// Spot-check the paper's rows.
	if !kinds["LV"].AdjacentVertex || !kinds["LV"].TransVertex {
		t.Error("LV uses both operator kinds")
	}
	if kinds["CC-SV"].AdjacentVertex || !kinds["CC-SV"].TransVertex {
		t.Error("CC-SV is trans-vertex only")
	}
	if !kinds["MIS"].AdjacentVertex || kinds["MIS"].TransVertex {
		t.Error("MIS is adjacent-vertex only")
	}
	if kinds["MSF"].AdjacentVertex || !kinds["MSF"].TransVertex {
		t.Error("MSF is trans-vertex only")
	}
}

// TestCCGridCountersPinned pins the BSP program of the three CC
// algorithms on a 64×64 grid, 2 hosts × 1 thread under CVC: round counts,
// each host's Σ PerRound.Active and the cluster's comm messages and bytes.
// The values were measured before the label rounds moved to host-local
// IDs (npm.Local) and the dense combine to single-writer marks; both are
// pure execution changes, so every count must stay exactly as it was. The
// shortcut's host-local compression (DESIGN.md §12) then cut CC-SV from
// 3+9 rounds, Σ active {22399, 24207}, 102 messages and 22,816 bytes to
// the pins below, and CC-SCLP from 2+9, {20291, 22095}, 96 and 22,106.
func TestCCGridCountersPinned(t *testing.T) {
	g := gen.Grid(64, 64, false, 1)
	want := map[string]struct {
		hook, shortcut, outer int
		active                [2]int64
		msgs, bytes           int64
	}{
		"CC-SV":   {3, 4, 2, [2]int64{12473, 14528}, 62, 2968},
		"CC-LP":   {127, 0, 1, [2]int64{102432, 167904}, 768, 34699},
		"CC-SCLP": {2, 4, 2, [2]int64{10365, 12416}, 56, 2258},
	}
	for name, algo := range ccAlgos() {
		c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]graph.NodeID, g.NumNodes())
		stats := make([]CCStats, 2)
		c.Run(func(h *runtime.Host) { stats[h.Rank] = algo(h, Config{LogRounds: true}, out) })
		msgs, bytes := c.CommStats()
		c.Close()
		checkLabels(t, g, out, name)
		var active [2]int64
		for r := range stats {
			for _, a := range stats[r].PerRound.Active {
				active[r] += a
			}
		}
		w := want[name]
		st := stats[0]
		if st.HookRounds != w.hook || st.ShortcutRounds != w.shortcut || st.OuterRounds != w.outer {
			t.Errorf("%s: %d hook + %d shortcut rounds in %d outer, want %d + %d in %d",
				name, st.HookRounds, st.ShortcutRounds, st.OuterRounds, w.hook, w.shortcut, w.outer)
		}
		if active != w.active {
			t.Errorf("%s: Σ active per host %v, want %v", name, active, w.active)
		}
		if msgs != w.msgs || bytes != w.bytes {
			t.Errorf("%s: %d messages, %d bytes, want %d, %d", name, msgs, bytes, w.msgs, w.bytes)
		}
	}
}

// TestCCRMATCountersPinned pins CC-SV's BSP program on the sync-path
// R-MAT(11,8) at 4 threads per host under OEC, the power-law counterpart
// of the grid pins above: hook and shortcut rounds and the cluster's comm
// messages and bytes. Every count must be the same at any thread count.
func TestCCRMATCountersPinned(t *testing.T) {
	g := gen.RMAT(11, 8, false, 3)
	for _, tc := range []struct {
		hosts, hook, shortcut int
		msgs, bytes           int64
	}{
		{4, 4, 4, 368, 44016},
		{8, 4, 4, 1584, 77519},
	} {
		t.Run(fmt.Sprintf("%dh/4t", tc.hosts), func(t *testing.T) {
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: tc.hosts, ThreadsPerHost: 4, Policy: partition.OEC})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			out := make([]graph.NodeID, g.NumNodes())
			var st CCStats
			c.Run(func(h *runtime.Host) {
				if s := CCSV(h, Config{}, out); h.Rank == 0 {
					st = s
				}
			})
			msgs, bytes := c.CommStats()
			checkLabels(t, g, out, "CC-SV")
			if st.HookRounds != tc.hook || st.ShortcutRounds != tc.shortcut {
				t.Errorf("%d hook + %d shortcut rounds, want %d + %d", st.HookRounds, st.ShortcutRounds, tc.hook, tc.shortcut)
			}
			if msgs != tc.msgs || bytes != tc.bytes {
				t.Errorf("%d messages, %d bytes, want %d, %d", msgs, bytes, tc.msgs, tc.bytes)
			}
		})
	}
}

// TestShortcutRoundsPinned gates the shortcut's local compression by its
// work proxy, the shortcut round count, on a 4096-node chain: the deepest
// parent chains, where plain pointer jumping takes a round per halving (14
// rounds at one host before the compression). At one host compression
// collapses the whole chain in the phase's first round; at two CVC hosts
// each round adds one cross-host hop. Counts are exact and must not
// depend on the thread count.
func TestShortcutRoundsPinned(t *testing.T) {
	g := gen.Chain(4096, false, 1)
	for _, tc := range []struct{ hosts, threads, want int }{
		{1, 1, 3}, {1, 3, 3}, {2, 1, 4},
	} {
		for name, algo := range map[string]func(*runtime.Host, Config, []graph.NodeID) CCStats{
			"CC-SV": CCSV, "CC-SCLP": CCSCLP,
		} {
			t.Run(fmt.Sprintf("%s/%dh/%dt", name, tc.hosts, tc.threads), func(t *testing.T) {
				c, err := runtime.NewCluster(g, runtime.Config{
					NumHosts: tc.hosts, ThreadsPerHost: tc.threads, Policy: partition.CVC,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				out := make([]graph.NodeID, g.NumNodes())
				var rounds int
				c.Run(func(h *runtime.Host) {
					if st := algo(h, Config{}, out); h.Rank == 0 {
						rounds = st.ShortcutRounds
					}
				})
				checkLabels(t, g, out, name)
				if rounds != tc.want {
					t.Errorf("%d shortcut rounds, want %d", rounds, tc.want)
				}
			})
		}
	}
}
