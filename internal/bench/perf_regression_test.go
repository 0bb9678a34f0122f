package bench

import (
	"path/filepath"
	gort "runtime"
	"testing"
	"time"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Counter gates: every check here compares deterministic counts (bytes,
// messages, allocated bytes), never a wall time, so they run in every
// `go test ./...`. The wall-clock gates live in perf_wall_test.go behind
// the wallgates build tag.

// syncRounds drives the sync-path workload on R-MAT(11,8) at hosts x 4
// threads: 3 warm-up rounds, then 40 measured ones, each a reduce of one
// value per local slot (plus a broadcast to pinned mirrors when pin is
// set). It returns the cluster-wide messages and bytes per measured round.
// Every reduce section's size is a function of its entry set alone
// (base-relative keys, positional dense masks), never of insertion order,
// so the counts are exact at any thread count.
func syncRounds(t *testing.T, variant npm.Variant, hosts int, pin bool) (msgs, bytes int64) {
	t.Helper()
	const warmup, iters = 3, 40
	g := gen.RMAT(11, 8, false, 3)
	cluster, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	maps := make([]npm.Map[graph.NodeID], hosts)
	rounds := func(h *runtime.Host, base, n int) {
		m := maps[h.Rank]
		total := h.HP.NumGlobalNodes()
		for i := base; i < base+n; i++ {
			h.ParFor(1024, func(tid, j int) {
				m.Reduce(tid, graph.NodeID((j*31+i)%total), graph.NodeID(j%total))
			})
			m.ReduceSync()
			if pin {
				m.BroadcastSync()
			}
		}
	}
	cluster.Run(func(h *runtime.Host) {
		m := npm.New(npm.Options[graph.NodeID]{
			Host: h, Op: npm.MinNodeID(), Codec: npm.NodeIDCodec{}, Variant: variant,
		})
		maps[h.Rank] = m
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		if pin {
			m.PinMirrors()
		}
		rounds(h, 0, warmup)
	})
	msgs0, bytes0 := cluster.CommStats()
	cluster.Run(func(h *runtime.Host) { rounds(h, warmup, iters) })
	msgs1, bytes1 := cluster.CommStats()
	return (msgs1 - msgs0) / iters, (bytes1 - bytes0) / iters
}

// TestReduceSyncCommBytesNoRegression pins the sync-path workload's
// messages and bytes per round, one subtest per map variant, host count
// and sync sequence. An encoding change that moves a count must update its
// pin deliberately.
func TestReduceSyncCommBytesNoRegression(t *testing.T) {
	for _, tc := range []struct {
		name        string
		variant     npm.Variant
		hosts       int
		pin         bool
		msgs, bytes int64
	}{
		{"reduce_sync_full/8h", npm.Full, 8, false, 56, 31339},
		{"reduce_sync_sgrcf/8h", npm.SGRCF, 8, false, 56, 42168},
		{"reduce_sync_full/2h", npm.Full, 2, false, 2, 4387},
		{"reduce_sync_sgronly/8h", npm.SGROnly, 8, false, 56, 42168},
		{"reduce_broadcast_full/8h", npm.Full, 8, true, 112, 32357},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs, bytes := syncRounds(t, tc.variant, tc.hosts, tc.pin)
			if msgs != tc.msgs || bytes != tc.bytes {
				t.Errorf("%d messages, %d bytes per round, pinned %d, %d", msgs, bytes, tc.msgs, tc.bytes)
			}
		})
	}
}

// timeOp runs op reps times, setup outside the timed window, and returns
// the fastest run's wall time and the bytes that run allocated (TotalAlloc
// delta, an upper bound on its peak heap growth).
func timeOp(reps int, setup, op func()) (wall time.Duration, alloc int64) {
	var ms0, ms1 gort.MemStats
	for rep := 0; rep < reps; rep++ {
		setup()
		gort.ReadMemStats(&ms0)
		start := time.Now()
		op()
		d := time.Since(start)
		gort.ReadMemStats(&ms1)
		if rep == 0 || d < wall {
			wall, alloc = d, int64(ms1.TotalAlloc-ms0.TotalAlloc)
		}
	}
	return wall, alloc
}

// csrBytes is the final CSR footprint: offsets, dsts, and (when weighted)
// weights — the denominator of the allocation gates.
func csrBytes(g *graph.Graph) int64 {
	b := int64(g.NumNodes()+1)*8 + g.NumEdges()*4
	if g.Weighted() {
		b += g.NumEdges() * 8
	}
	return b
}

// TestStreamIngestGate holds the out-of-core build to its memory contract
// on the full-scale friendster analogue: the streaming two-scan build's
// allocation (TotalAlloc delta, an upper bound on peak heap growth) must
// stay within 125% of the final CSR footprint — the cursor matrix and the
// per-worker block buffers, both allocated per build, are the only
// working set on top of the output arrays.
func TestStreamIngestGate(t *testing.T) {
	g := Config{Scale: Full}.graphFor(gen.Friendster)
	path := filepath.Join(t.TempDir(), "graph.kmb2")
	if err := graph.SaveKMB2(path, g, 0); err != nil {
		t.Fatal(err)
	}
	stream := func() {
		src, err := graph.OpenKMB2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		if _, err := graph.NewStreamBuilder(src).SetWorkers(4).Build(); err != nil {
			t.Fatal(err)
		}
	}
	stream() // warm the par worker pool
	gort.GC()
	_, alloc := timeOp(1, func() {}, stream)
	csr := csrBytes(g)
	if alloc == 0 {
		t.Fatal("streaming gate measured nothing; gate workload is broken")
	}
	t.Logf("csr=%dKB stream alloc=%dKB (%.2fx)", csr/1024, alloc/1024, float64(alloc)/float64(csr))
	if limit := csr + csr/4; alloc > limit {
		t.Errorf("streaming build allocated %d bytes, above 125%% of the %d-byte CSR (limit %d)",
			alloc, csr, limit)
	}
}

// TestPartitionAllocGate holds the partitioner to writing each host's
// local CSR once: partitioning the full-scale friendster R-MAT (2 hosts,
// CVC, 2 workers) may allocate (TotalAlloc delta) at most 125% of the
// bytes its result holds — every host's local CSR offsets, dsts and
// weights plus its global→local table. Global-ID edge columns or a
// second CSR build on top of the output would each break the bound.
func TestPartitionAllocGate(t *testing.T) {
	g := Config{Scale: Full}.graphFor(gen.Friendster)
	var p *partition.Partitioned
	part := func() { p = partition.PartitionWorkers(g, 2, partition.CVC, 2) }
	part() // warm the worker pool
	gort.GC()
	_, alloc := timeOp(1, func() {}, part)
	var held int64
	for _, hp := range p.Hosts {
		held += csrBytes(hp.Local) + hp.TranslationFootprint()
	}
	if alloc == 0 || held == 0 {
		t.Fatal("partition gate measured nothing; gate workload is broken")
	}
	t.Logf("held=%dKB partition alloc=%dKB (%.2fx)", held/1024, alloc/1024, float64(alloc)/float64(held))
	if limit := held + held/4; alloc > limit {
		t.Errorf("partitioning allocated %d bytes, above 125%% of the %d bytes its result holds (limit %d)",
			alloc, held, limit)
	}
}
