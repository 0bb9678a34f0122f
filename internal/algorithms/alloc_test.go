package algorithms

import (
	goruntime "runtime"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// allocRun is one measured call. It returns the call, which reports its
// round count, and a release func; whatever the call reuses (a cluster) is
// built here, outside the measurement.
type allocRun func(t *testing.T) (call func() int, release func())

// clusterRun runs algo on a 2 hosts x 1 thread CVC cluster over g, the
// shape of the benchmark's high-diameter road workload.
func clusterRun(g *graph.Graph, algo func(h *runtime.Host) int) allocRun {
	return func(t *testing.T) (func() int, func()) {
		c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
		if err != nil {
			t.Fatal(err)
		}
		return func() int {
			var rounds int
			c.Run(func(h *runtime.Host) {
				if r := algo(h); h.Rank == 0 {
					rounds = r
				}
			})
			return rounds
		}, c.Close
	}
}

// callAllocs makes the call once to warm it, then measures the bytes and
// objects the whole process allocates during a second call, and the
// call's round count.
func callAllocs(t *testing.T, run allocRun) (bytes, objects uint64, rounds int) {
	t.Helper()
	call, release := run(t)
	defer release()
	call()
	// ReadMemStats stops the world and flushes every P's cache, so the
	// counts are exact.
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	rounds = call()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, rounds
}

// TestRoundAllocsDoNotScale pins allocation per MIS, CC-LP, Louvain and
// Leiden round. Each case measures two calls whose round counts differ on
// graphs of equal node count: MIS runs one grid under two MaxRounds caps,
// both below the rounds the grid needs; CC-LP, whose rounds follow the
// diameter, runs two grids whose round counts differ about two-fold;
// Louvain and Leiden run one level of a planted-partition graph under two
// MaxIters caps. Maps, frontiers and buffers are sized by the graph, so
// they cost the same in both calls; what a call allocates per round
// (closures, timers, scratch) is the difference over the extra rounds.
// That must stay within a budget that does not depend on the graph and
// sits far below one property map here (a per-round MIS map cost ~118 KB a
// round on a 1024-node grid), so no phase may build a map per round — nor,
// in the community move phases, a Go map per master.
func TestRoundAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget only holds unraced")
	}
	// 64×64 needs 5 MIS rounds, more than either cap.
	misGrid := gen.Grid(64, 64, false, 1)
	mis := func(maxRounds int) allocRun {
		out := make([]bool, misGrid.NumNodes())
		return clusterRun(misGrid, func(h *runtime.Host) int {
			return MIS(h, Config{MaxRounds: maxRounds}, out).Rounds
		})
	}
	ccLP := func(g *graph.Graph) allocRun {
		out := make([]graph.NodeID, g.NumNodes())
		return clusterRun(g, func(h *runtime.Host) int { return CCLP(h, Config{}, out).HookRounds })
	}
	// The first level of this graph runs more Louvain rounds than either
	// cap. With MaxLevels 1 the driver stops before contracting, whose
	// size would follow the clustering each cap leaves.
	cdGraph := gen.Communities(8, 64, 8, 2, true, 3)
	cd := func(algo func(*graph.Graph, runtime.Config, Config, CDOptions) (CDResult, error), maxIters int) allocRun {
		return func(t *testing.T) (func() int, func()) {
			return func() int {
				res, err := algo(cdGraph, runtime.Config{NumHosts: 2, ThreadsPerHost: 1}, Config{},
					CDOptions{MaxLevels: 1, MaxIters: maxIters})
				if err != nil {
					t.Fatal(err)
				}
				return res.Rounds
			}, func() {}
		}
	}
	for _, tc := range []struct {
		name        string
		short, long allocRun
		// Per-round budgets, cluster-wide; measured 1.2-1.7 KB / 30-33
		// objects (MIS), 0.3 KB / 5.4 objects (CC-LP), 13.5 KB / 116
		// objects (Louvain) and 10 KB / 84 objects (Leiden, move rounds
		// only: refinement runs its own rounds), at least 2x headroom. A
		// Go map per master cost Louvain 1375 objects and Leiden 1579 a
		// round here.
		bytes, objects float64
	}{
		{"mis", mis(1), mis(4), 6 << 10, 64},
		{"cc-lp", ccLP(gen.Grid(32, 32, false, 1)), ccLP(gen.Grid(8, 128, false, 1)), 1 << 10, 16},
		{"louvain", cd(Louvain, 2), cd(Louvain, 6), 32 << 10, 256},
		{"leiden", cd(Leiden, 2), cd(Leiden, 6), 32 << 10, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sb, so, sr := callAllocs(t, tc.short)
			lb, lo, lr := callAllocs(t, tc.long)
			if lr < sr+sr/2 {
				t.Fatalf("round counts %d (short) and %d (long) too close to separate per-round cost", sr, lr)
			}
			extra := float64(lr - sr)
			perBytes := (float64(lb) - float64(sb)) / extra
			perObjects := (float64(lo) - float64(so)) / extra
			t.Logf("short: %d rounds, %d B, %d objects; long: %d rounds, %d B, %d objects; per round: %.0f B, %.1f objects",
				sr, sb, so, lr, lb, lo, perBytes, perObjects)
			if perBytes > tc.bytes || perObjects > tc.objects {
				t.Errorf("%s allocates %.0f B / %.1f objects per round, budget %.0f B / %.0f objects",
					tc.name, perBytes, perObjects, tc.bytes, tc.objects)
			}
		})
	}
}
