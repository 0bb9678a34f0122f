package algorithms

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Host- and thread-count equivalence. Every round is bsp and every
// parallel pass writes only its own vertex's slot or a thread-local reduce
// buffer, so a run's outputs and counters must not depend on the worker
// count: labels, round counts and every host's round log are identical at
// 1 and 3 threads. Labels — and MIS's greedy set — must also not depend on
// the host count, partition or transport; round counts may (a cross-host
// parent chain takes a request round per hop).

func modeGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		// chain maximizes pointer-jumping depth.
		"chain": gen.Chain(300, false, 3),
		"rmat":  gen.RMAT(8, 6, false, 2),
		"grid":  gen.Grid(12, 12, false, 7),
	}
}

// sameRounds fails unless two CC runs agree on every host's round
// counters and round log. Reduce bytes are left out: a payload is
// sectioned by the receiver's thread count (DESIGN.md §8), so its size
// follows the thread count.
func sameRounds(t *testing.T, what string, got, want []CCStats) {
	t.Helper()
	for r := range want {
		g, w := got[r], want[r]
		g.PerRound.ReduceBytes, w.PerRound.ReduceBytes = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: host %d stats %+v, want %+v", what, r, g, w)
		}
	}
}

func TestCCModesConvergeIdentically(t *testing.T) {
	for gname, g := range modeGraphs() {
		for aname, algo := range ccAlgos() {
			for _, hosts := range []int{1, 2, 4, 8} {
				var ref []CCStats
				for _, threads := range []int{1, 3} {
					rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC}
					got, stats := runCCOnAll(t, g, rc, Config{}, algo)
					what := fmt.Sprintf("%s/%s/%dh/%dt", gname, aname, hosts, threads)
					if ref == nil {
						ref = stats
					}
					checkLabels(t, g, got, what)
					sameRounds(t, what, stats, ref)
				}
			}
		}
	}
}

func runMISOn(t *testing.T, g *graph.Graph, rc runtime.Config) ([]bool, MISStats) {
	t.Helper()
	c, err := runtime.NewCluster(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]bool, g.NumNodes())
	var stats MISStats
	c.Run(func(h *runtime.Host) {
		if st := MIS(h, Config{}, out); h.Rank == 0 {
			stats = st
		}
	})
	return out, stats
}

func TestMISModesConvergeIdentically(t *testing.T) {
	for gname, g := range modeGraphs() {
		ref, _ := runMISOn(t, g, runtime.Config{NumHosts: 1, ThreadsPerHost: 1})
		if !graph.IsValidMIS(g, ref) {
			t.Fatalf("%s: 1-host MIS invalid", gname)
		}
		for _, hosts := range []int{1, 2, 4, 8} {
			var refStats *MISStats
			for _, threads := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%dh/%dt", gname, hosts, threads), func(t *testing.T) {
					got, stats := runMISOn(t, g, runtime.Config{
						NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC,
					})
					if !slices.Equal(got, ref) {
						t.Fatal("membership differs from the 1-host run")
					}
					if refStats == nil {
						refStats = &stats
					} else if stats != *refStats {
						t.Fatalf("stats %+v at %d threads, %+v at 1", stats, threads, *refStats)
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

// TestModeEquivalenceCCSVIECMatrix pins CC-SV labels to the reference and
// its counters and round logs at 3 threads to the 1-thread run, across
// {dense, sparse} × {in-memory, TCP} × {2, 4, 8} hosts on an IEC partition.
// Dense and sparse rounds exercise both reduce section body forms.
func TestModeEquivalenceCCSVIECMatrix(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	for _, tcp := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			for _, hosts := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("tcp=%v/dense=%v/%dh", tcp, dense, hosts), func(t *testing.T) {
					rc := runtime.Config{
						NumHosts: hosts, ThreadsPerHost: 1, Policy: partition.IEC, UseTCP: tcp,
					}
					cfg := Config{dense: dense, LogRounds: true}
					base, baseStats := runCCOnAll(t, g, rc, cfg, CCSV)
					checkLabels(t, g, base, "1 thread")
					rc.ThreadsPerHost = 3
					got, stats := runCCOnAll(t, g, rc, cfg, CCSV)
					checkLabels(t, g, got, "3 threads")
					sameRounds(t, "3 threads", stats, baseStats)
				})
			}
		}
	}
}

// TestModeEquivalenceCCLPRounds pins the labels and round counts of CC-LP
// and CC-SCLP on IEC partitions: the 3-thread run must match the 1-thread
// run exactly, dense and sparse, and its labels the 1-host run's.
func TestModeEquivalenceCCLPRounds(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":  gen.RMAT(9, 6, false, 42),
		"grid":  gen.Grid(16, 16, false, 7),
		"chain": gen.Chain(120, false, 3),
	}
	for gname, g := range graphs {
		for _, hosts := range []int{1, 2, 4, 8} {
			for aname, algo := range map[string]func(*runtime.Host, Config, []graph.NodeID) CCStats{
				"CC-LP": CCLP, "CC-SCLP": CCSCLP,
			} {
				for _, dense := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%dh/dense=%v", gname, aname, hosts, dense), func(t *testing.T) {
						rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 1, Policy: partition.IEC}
						cfg := Config{dense: dense, LogRounds: true}
						base, baseStats := runCCOnAll(t, g, rc, cfg, algo)
						checkLabels(t, g, base, "1 thread")
						rc.ThreadsPerHost = 3
						got, stats := runCCOnAll(t, g, rc, cfg, algo)
						checkLabels(t, g, got, "3 threads")
						sameRounds(t, "3 threads", stats, baseStats)
					})
				}
			}
		}
	}
}

// TestModeEquivalenceMISIEC pins MIS on IEC partitions: the selected set
// must match the 1-host run, and the set, its size and the round count at
// 3 threads the 1-thread run.
func TestModeEquivalenceMISIEC(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(8, 6, false, 2),
		"grid": gen.Grid(12, 12, false, 7),
		"star": gen.Star(60),
	}
	for gname, g := range graphs {
		ref, _ := runMISOn(t, g, runtime.Config{NumHosts: 1, ThreadsPerHost: 1})
		for _, hosts := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dh", gname, hosts), func(t *testing.T) {
				rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 1, Policy: partition.IEC}
				base, baseStats := runMISOn(t, g, rc)
				if !graph.IsValidMIS(g, base) {
					t.Fatal("1-thread run produced an invalid MIS")
				}
				if !slices.Equal(base, ref) {
					t.Fatal("membership differs from the 1-host run")
				}
				rc.ThreadsPerHost = 3
				got, stats := runMISOn(t, g, rc)
				if !slices.Equal(got, base) {
					t.Fatal("membership at 3 threads differs from 1 thread")
				}
				if stats != baseStats {
					t.Fatalf("3-thread stats %+v, 1-thread %+v", stats, baseStats)
				}
			})
		}
	}
}

// TestConfigExportsNoExecutionKnob pins the public Config to the backend,
// safety and telemetry fields: how a round executes — frontier or dense,
// and the one bsp shape every round has — is not configurable from outside
// the package.
func TestConfigExportsNoExecutionKnob(t *testing.T) {
	var exported []string
	ct := reflect.TypeFor[Config]()
	for i := range ct.NumField() {
		if f := ct.Field(i); f.IsExported() {
			exported = append(exported, f.Name)
		}
	}
	want := []string{"Variant", "Store", "MaxRounds", "StatsSink", "LogRounds"}
	if !slices.Equal(exported, want) {
		t.Fatalf("Config exports %v, want %v", exported, want)
	}
}

// TestRoundLogsMatchAcrossThreads pins every host's round log — hook or
// shortcut, active count, reduce bytes — of CC-SV and CC-SCLP at 3 threads
// to the 1-thread run, with labels equal to the reference and every host
// logging the same round sequence (rounds are collective). The cases cover
// a single host, a 4-host R-MAT and a 4-host chain under IEC, and a 1-host
// chain; 4-host R-MAT and chain runs under CVC and OEC are pinned too.
func TestRoundLogsMatchAcrossThreads(t *testing.T) {
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
			t.Run(fmt.Sprintf("%s/%s/%dh", aname, tc.name, tc.hosts), func(t *testing.T) {
				rc := runtime.Config{NumHosts: tc.hosts, ThreadsPerHost: 1, Policy: tc.pol}
				base, baseStats := runCCOnAll(t, tc.g, rc, Config{LogRounds: true}, algo)
				checkLabels(t, tc.g, base, aname)
				for rank, st := range baseStats {
					if !slices.Equal(st.PerRound.Hook, baseStats[0].PerRound.Hook) {
						t.Fatalf("host %d logged rounds %v, host 0 %v", rank, st.PerRound.Hook, baseStats[0].PerRound.Hook)
					}
				}
				rc.ThreadsPerHost = 3
				got, stats := runCCOnAll(t, tc.g, rc, Config{LogRounds: true}, algo)
				checkLabels(t, tc.g, got, "3 threads")
				sameRounds(t, "3 threads", stats, baseStats)
			})
		}
	}
}
