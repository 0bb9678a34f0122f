package algorithms

import (
	"fmt"
	"slices"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Direction equivalence: pull rounds are a pure execution-strategy change
// — same fixpoint, same collected labels — so the pull strategy must match
// the bsp run bit for bit across the full execution matrix, and so must
// the async strategy, whose shortcut drains interleave with the same
// label rounds. Pull is only legal under pull-complete partitions (IEC, or
// one host), so IEC is the matrix policy; the OEC/CVC runs below pin the
// fall-back to bsp instead.

func runCCDir(t *testing.T, g *graph.Graph, rc runtime.Config, acfg Config,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) ([]graph.NodeID, CCStats) {
	t.Helper()
	out, stats := runCCDirAll(t, g, rc, acfg, algo)
	return out, stats[0]
}

// runCCDirAll is runCCDir returning every host's stats, indexed by rank.
func runCCDirAll(t *testing.T, g *graph.Graph, rc runtime.Config, acfg Config,
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

// TestDirectionEquivalenceCCSVFullMatrix pins CC-SV labels across
// {bsp, pull, async} × {dense, sparse} × {in-memory, TCP} × {2, 4, 8}
// hosts on an IEC partition. Dense and sparse rounds exercise both reduce
// section body forms.
func TestDirectionEquivalenceCCSVFullMatrix(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	want := graph.ReferenceComponents(g)
	for _, tcp := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			for _, hosts := range []int{2, 4, 8} {
				rc := runtime.Config{
					NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.IEC, UseTCP: tcp,
				}
				base, _ := runCCDir(t, g, rc, Config{Dense: dense}, CCSV)
				for i := range base {
					if base[i] != want[i] {
						t.Fatalf("tcp=%v/dense=%v/%dh: push node %d labeled %d, reference %d",
							tcp, dense, hosts, i, base[i], want[i])
					}
				}
				for _, s := range []Strategy{StrategyPull, StrategyAsync} {
					got, _ := runCCDir(t, g, rc, Config{Dense: dense, Strategy: s}, CCSV)
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("tcp=%v/dense=%v/%dh/%s: node %d labeled %d, push labeled %d",
								tcp, dense, hosts, s, i, got[i], base[i])
						}
					}
				}
			}
		}
	}
}

// TestDirectionEquivalenceCCLP additionally pins the round counts of
// CC-LP and CC-SCLP, whose propagation pass runs through the same label
// loop: the pull round is the exact transpose of the push round, so
// per-round states — not just converged labels — coincide, and every run
// whose rounds are only bsp and pull takes the bsp run's round count.
// CC-LP has no round that drains, so its counts are always pinned.
// CC-SCLP's shortcut drains under the async strategy, and an async round
// cascades within the round, so a run in which some host drained pins its
// labels only. Dense execution has nothing to drain.
func TestDirectionEquivalenceCCLP(t *testing.T) {
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
					base, baseStats := runCCDir(t, g, rc, Config{Dense: dense}, algo)
					for _, s := range []Strategy{StrategyPull, StrategyAsync} {
						got, all := runCCDirAll(t, g, rc, Config{Dense: dense, Strategy: s, LogRounds: true}, algo)
						for i := range base {
							if got[i] != base[i] {
								t.Fatalf("%s/%s/%dh/dense=%v/%s: node %d labeled %d, push labeled %d",
									gname, aname, hosts, dense, s, i, got[i], base[i])
							}
						}
						drained := ranShape(all, "async")
						if drained && (dense || aname == "CC-LP") {
							t.Fatalf("%s/%s/%dh/dense=%v/%s: drained with no shortcut to drain", gname, aname, hosts, dense, s)
						}
						if stats := all[0]; !drained && (stats.HookRounds != baseStats.HookRounds ||
							stats.ShortcutRounds != baseStats.ShortcutRounds) {
							t.Fatalf("%s/%s/%dh/dense=%v/%s: %d+%d rounds, push took %d+%d",
								gname, aname, hosts, dense, s,
								stats.HookRounds, stats.ShortcutRounds, baseStats.HookRounds, baseStats.ShortcutRounds)
						}
					}
				}
			}
		}
	}
}

// TestDirectionEquivalenceMIS: the selected set — and the round count,
// since per-round decisions coincide in every shape — must match bsp
// exactly.
func TestDirectionEquivalenceMIS(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(8, 6, false, 2),
		"grid": gen.Grid(12, 12, false, 7),
		"star": gen.Star(60),
	}
	for gname, g := range graphs {
		for _, hosts := range []int{1, 2, 4} {
			rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.IEC}
			var base []bool
			var baseStats MISStats
			for _, s := range []Strategy{StrategyBSP, StrategyPull, StrategyAsync} {
				c, err := runtime.NewCluster(g, rc)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]bool, g.NumNodes())
				var stats MISStats
				c.Run(func(h *runtime.Host) {
					st := MIS(h, Config{Strategy: s}, out)
					if h.Rank == 0 {
						stats = st
					}
				})
				c.Close()
				if !graph.IsValidMIS(g, out) {
					t.Fatalf("%s/%dh/%s: invalid MIS", gname, hosts, s)
				}
				if base == nil {
					base, baseStats = out, stats
					continue
				}
				for i := range base {
					if out[i] != base[i] {
						t.Fatalf("%s/%dh/%s: membership of node %d = %v, push %v",
							gname, hosts, s, i, out[i], base[i])
					}
				}
				if stats.Rounds != baseStats.Rounds || stats.Size != baseStats.Size {
					t.Fatalf("%s/%dh/%s: rounds/size = %d/%d, push %d/%d",
						gname, hosts, s, stats.Rounds, stats.Size,
						baseStats.Rounds, baseStats.Size)
				}
			}
		}
	}
}

// TestDirectionFallsBackWithoutPullCompleteness: on OEC/CVC multi-host
// partitions masters' in-edges live on other hosts, so pull is illegal;
// StrategyPull must run bsp rounds (the trace shows it) and still
// converge to the reference labels. One-host runs of the same policies
// are vacuously pull-complete and must pull.
func TestDirectionFallsBackWithoutPullCompleteness(t *testing.T) {
	g := gen.Grid(10, 10, false, 1)
	want := graph.ReferenceComponents(g)
	for _, pol := range []partition.Policy{partition.OEC, partition.CVC} {
		for _, hosts := range []int{1, 4} {
			rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: pol}
			got, stats := runCCDir(t, g, rc, Config{Strategy: StrategyPull, LogRounds: true}, CCLP)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%dh: node %d labeled %d, reference %d", pol, hosts, i, got[i], want[i])
				}
			}
			want := "bsp"
			if hosts == 1 {
				want = "pull"
			}
			for r, d := range stats.PerRound.Shape {
				if d != want {
					t.Fatalf("%s/%dh: round %d ran %s, want %s", pol, hosts, r, d, want)
				}
			}
		}
	}
}

// TestPullRoundsSendNoReduceBytes pins the collective-elision claim at
// the trace level: every round of a pull CC-LP run pulls, and its
// reduce-byte delta is exactly zero.
func TestPullRoundsSendNoReduceBytes(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	rc := runtime.Config{NumHosts: 4, ThreadsPerHost: 3, Policy: partition.IEC}
	_, stats := runCCDir(t, g, rc, Config{Strategy: StrategyPull, LogRounds: true}, CCLP)
	if len(stats.PerRound.Shape) == 0 {
		t.Fatal("no rounds recorded")
	}
	for r, d := range stats.PerRound.Shape {
		if d != "pull" {
			t.Fatalf("round %d ran %s; trace %v", r, d, stats.PerRound.Shape)
		}
		if b := stats.PerRound.ReduceBytes[r]; b != 0 {
			t.Fatalf("pull round %d sent %d reduce bytes", r, b)
		}
	}
}

// TestRoundShapes pins the shape of every round each static strategy
// runs: under async, label rounds (CC-SV's hook, CC-SCLP's propagation
// pass) run bsp and every shortcut round drains; under pull, label rounds
// pull and shortcut rounds, which have no pull form, run bsp — on every
// host, with labels equal to the reference. The cases cover a
// pull-complete single host, a 4-host R-MAT and a 4-host chain under IEC,
// and a 1-host chain, whose shortcut must still drain under async.
func TestRoundShapes(t *testing.T) {
	rmat, chain := gen.RMAT(8, 6, false, 2), gen.Chain(300, false, 3)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		hosts int
	}{
		{"rmat", rmat, 1},
		{"rmat", rmat, 4},
		{"chain", chain, 4},
		{"chain", chain, 1},
	} {
		for _, sc := range []struct {
			s               Strategy
			label, shortcut string
		}{
			{StrategyAsync, "bsp", "async"},
			{StrategyPull, "pull", "bsp"},
		} {
			for aname, algo := range map[string]func(*runtime.Host, Config, []graph.NodeID) CCStats{
				"CC-SV": CCSV, "CC-SCLP": CCSCLP,
			} {
				t.Run(fmt.Sprintf("%s/%s/%dh/%s", aname, tc.name, tc.hosts, sc.s), func(t *testing.T) {
					rc := runtime.Config{NumHosts: tc.hosts, ThreadsPerHost: 3, Policy: partition.IEC}
					got, all := runCCDirAll(t, tc.g, rc, Config{Strategy: sc.s, LogRounds: true}, algo)
					checkLabels(t, tc.g, got, aname)
					for rank, st := range all {
						for r, shape := range st.PerRound.Shape {
							want := sc.shortcut
							if st.PerRound.Hook[r] {
								want = sc.label
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
}
