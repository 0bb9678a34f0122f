package algorithms

import (
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Direction equivalence: pull rounds are a pure execution-strategy change
// — same fixpoint, same collected labels — so every direction must match
// the push run bit for bit across the full execution matrix. Pull is only
// legal under pull-complete partitions (IEC, or one host), so IEC is the
// matrix policy; the OEC/CVC runs below pin the silent fall-back to push
// instead.

func runCCDir(t *testing.T, g *graph.Graph, rc runtime.Config, acfg Config,
	algo func(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats) ([]graph.NodeID, CCStats) {
	t.Helper()
	c, err := runtime.NewCluster(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	var stats CCStats
	c.Run(func(h *runtime.Host) {
		s := algo(h, acfg, out)
		if h.Rank == 0 {
			stats = s
		}
	})
	return out, stats
}

// TestDirectionEquivalenceCCSVFullMatrix pins CC-SV labels across
// {push, pull, adaptive} × {dense, sparse} × {in-memory, TCP} × {2, 4, 8}
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
				for _, dir := range []Direction{DirPull, DirAdaptive} {
					got, _ := runCCDir(t, g, rc, Config{Dense: dense, Direction: dir}, CCSV)
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("tcp=%v/dense=%v/%dh/%s: node %d labeled %d, push labeled %d",
								tcp, dense, hosts, dir, i, got[i], base[i])
						}
					}
				}
			}
		}
	}
}

// TestDirectionEquivalenceCCLP additionally pins CC-LP's round count:
// its pull round is the exact transpose of its push round, so per-round
// states — not just converged labels — coincide.
func TestDirectionEquivalenceCCLP(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":  gen.RMAT(9, 6, false, 42),
		"grid":  gen.Grid(16, 16, false, 7),
		"chain": gen.Chain(120, false, 3),
	}
	for gname, g := range graphs {
		for _, hosts := range []int{1, 2, 4, 8} {
			rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.IEC}
			base, baseStats := runCCDir(t, g, rc, Config{}, CCLP)
			for _, dir := range []Direction{DirPull, DirAdaptive} {
				got, stats := runCCDir(t, g, rc, Config{Direction: dir}, CCLP)
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("%s/%dh/%s: node %d labeled %d, push labeled %d",
							gname, hosts, dir, i, got[i], base[i])
					}
				}
				if stats.HookRounds != baseStats.HookRounds {
					t.Fatalf("%s/%dh/%s: %d rounds, push took %d",
						gname, hosts, dir, stats.HookRounds, baseStats.HookRounds)
				}
			}
		}
	}
}

// TestDirectionEquivalenceMIS: the selected set — and the round count,
// since per-round decisions coincide — must match push exactly.
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
			for _, dir := range []Direction{DirPush, DirPull, DirAdaptive} {
				c, err := runtime.NewCluster(g, rc)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]bool, g.NumNodes())
				var stats MISStats
				c.Run(func(h *runtime.Host) {
					s := MIS(h, Config{Direction: dir}, out)
					if h.Rank == 0 {
						stats = s
					}
				})
				c.Close()
				if !graph.IsValidMIS(g, out) {
					t.Fatalf("%s/%dh/%s: invalid MIS", gname, hosts, dir)
				}
				if base == nil {
					base, baseStats = out, stats
					continue
				}
				for i := range base {
					if out[i] != base[i] {
						t.Fatalf("%s/%dh/%s: membership of node %d = %v, push %v",
							gname, hosts, dir, i, out[i], base[i])
					}
				}
				if stats.Rounds != baseStats.Rounds || stats.Size != baseStats.Size {
					t.Fatalf("%s/%dh/%s: rounds/size = %d/%d, push %d/%d",
						gname, hosts, dir, stats.Rounds, stats.Size,
						baseStats.Rounds, baseStats.Size)
				}
			}
		}
	}
}

// TestDirectionFallsBackWithoutPullCompleteness: on OEC/CVC multi-host
// partitions masters' in-edges live on other hosts, so pull is illegal;
// DirPull must silently run push rounds (the trace shows it) and still
// converge to the reference labels. One-host runs of the same policies
// are vacuously pull-complete and must pull.
func TestDirectionFallsBackWithoutPullCompleteness(t *testing.T) {
	g := gen.Grid(10, 10, false, 1)
	want := graph.ReferenceComponents(g)
	for _, pol := range []partition.Policy{partition.OEC, partition.CVC} {
		for _, hosts := range []int{1, 4} {
			rc := runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: pol}
			got, stats := runCCDir(t, g, rc, Config{Direction: DirPull, LogRounds: true}, CCLP)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%dh: node %d labeled %d, reference %d", pol, hosts, i, got[i], want[i])
				}
			}
			wantDir := "push"
			if hosts == 1 {
				wantDir = "pull"
			}
			for r, d := range stats.PerRound.Dir {
				if d != wantDir {
					t.Fatalf("%s/%dh: round %d ran %s, want %s", pol, hosts, r, d, wantDir)
				}
			}
		}
	}
}

// TestPullRoundsSendNoReduceBytes pins the collective-elision claim at
// the trace level: every pull round's reduce-byte delta is exactly zero,
// and a static pull CC-LP run never sends a reduce byte after init.
func TestPullRoundsSendNoReduceBytes(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	for _, dir := range []Direction{DirPull, DirAdaptive} {
		rc := runtime.Config{NumHosts: 4, ThreadsPerHost: 3, Policy: partition.IEC}
		_, stats := runCCDir(t, g, rc, Config{Direction: dir, LogRounds: true}, CCLP)
		pulls := 0
		for r, d := range stats.PerRound.Dir {
			if d != "pull" {
				continue
			}
			pulls++
			if b := stats.PerRound.ReduceBytes[r]; b != 0 {
				t.Fatalf("%s: pull round %d sent %d reduce bytes", dir, r, b)
			}
		}
		if pulls == 0 {
			t.Fatalf("%s: no pull rounds recorded in %v", dir, stats.PerRound.Dir)
		}
	}
}
