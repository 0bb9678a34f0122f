package algorithms

import (
	goruntime "runtime"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// callAllocs runs algo once to warm the cluster, then measures the bytes
// and objects the whole process allocates during a second call, and the
// call's round count. The cluster is 2 hosts x 1 thread under CVC, the
// shape of the benchmark's high-diameter road workload.
func callAllocs(t *testing.T, g *graph.Graph, algo func(h *runtime.Host) int) (bytes, objects uint64, rounds int) {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := func() {
		c.Run(func(h *runtime.Host) {
			if r := algo(h); h.Rank == 0 {
				rounds = r
			}
		})
	}
	run()
	// ReadMemStats stops the world and flushes every P's cache, so the
	// counts are exact.
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	run()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, rounds
}

// TestRoundAllocsDoNotScale pins allocation per MIS and per CC-LP call on
// two grids of equal node count whose round counts differ about two-fold.
// Maps, frontiers and buffers are sized by the graph, so they cost the same
// on both; what a call allocates per round (closures, timers, scratch) is
// the difference over the extra rounds. That must stay within a budget that
// does not depend on the graph and sits far below one property map here
// (a per-round MIS map cost ~118 KB a round on this grid), so no phase may
// build a map per round.
func TestRoundAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget only holds unraced")
	}
	square, long := gen.Grid(32, 32, false, 1), gen.Grid(8, 128, false, 1)
	for _, tc := range []struct {
		name string
		algo func(g *graph.Graph) func(h *runtime.Host) int
		// Per-round budgets, cluster-wide; measured 2.9 KB / 33 objects
		// (MIS) and 0.4 KB / 7.4 objects (CC-LP), about 2x headroom.
		bytes, objects float64
	}{
		{"mis", func(g *graph.Graph) func(h *runtime.Host) int {
			out := make([]bool, g.NumNodes())
			return func(h *runtime.Host) int { return MIS(h, Config{}, out).Rounds }
		}, 6 << 10, 64},
		{"cc-lp", func(g *graph.Graph) func(h *runtime.Host) int {
			out := make([]graph.NodeID, g.NumNodes())
			return func(h *runtime.Host) int { return CCLP(h, Config{}, out).HookRounds }
		}, 1 << 10, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sb, so, sr := callAllocs(t, square, tc.algo(square))
			lb, lo, lr := callAllocs(t, long, tc.algo(long))
			if lr < sr+sr/2 {
				t.Fatalf("round counts %d (square) and %d (long) too close to separate per-round cost", sr, lr)
			}
			extra := float64(lr - sr)
			perBytes := (float64(lb) - float64(sb)) / extra
			perObjects := (float64(lo) - float64(so)) / extra
			t.Logf("square: %d rounds, %d B, %d objects; long: %d rounds, %d B, %d objects; per round: %.0f B, %.1f objects",
				sr, sb, so, lr, lb, lo, perBytes, perObjects)
			if perBytes > tc.bytes || perObjects > tc.objects {
				t.Errorf("%s allocates %.0f B / %.1f objects per round, budget %.0f B / %.0f objects",
					tc.name, perBytes, perObjects, tc.bytes, tc.objects)
			}
		})
	}
}
