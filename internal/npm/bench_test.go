package npm

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// Micro-benchmarks for the node-property map's design choices (DESIGN.md
// §4): thread-local vs shared-map reductions, GAR reads, and the combine
// pass.

func BenchmarkLocalMapReduce(b *testing.B) {
	m := newLocalMap[graph.NodeID]()
	min := func(a, v graph.NodeID) graph.NodeID {
		if v < a {
			return v
		}
		return a
	}
	keys := make([]graph.NodeID, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = graph.NodeID(r.Intn(4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reduce(keys[i%len(keys)], graph.NodeID(i), min)
	}
}

// BenchmarkReduceHotKeyCF vs BenchmarkReduceHotKeyShared expose the
// conflict-free design's advantage: every thread hammering one hub key.
func BenchmarkReduceHotKeyCF(b *testing.B) {
	const threads = 8
	min := func(a, v graph.NodeID) graph.NodeID {
		if v < a {
			return v
		}
		return a
	}
	tl := make([]*localMap[graph.NodeID], threads)
	for i := range tl {
		tl[i] = newLocalMap[graph.NodeID]()
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/threads + 1
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tl[tid].Reduce(7, graph.NodeID(i), min) // conflict-free
			}
		}(t)
	}
	wg.Wait()
}

func BenchmarkReduceHotKeyShared(b *testing.B) {
	const threads = 8
	min := func(a, v graph.NodeID) graph.NodeID {
		if v < a {
			return v
		}
		return a
	}
	s := newShardedMap[graph.NodeID]()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/threads + 1
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Reduce(7, graph.NodeID(i), min) // one lock for everyone
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGARMasterRead measures the dense-vector read path vs
// BenchmarkGARRemoteRead's binary-search path (Figure 6).
func BenchmarkGARMasterRead(b *testing.B) {
	m, _, cleanup := benchFullMap(b)
	defer cleanup()
	lo, hi := m.masterLo, m.masterHi
	span := int(hi - lo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(lo + graph.NodeID(i%span))
	}
}

func BenchmarkGARRemoteRead(b *testing.B) {
	m, remote, cleanup := benchFullMap(b)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(remote[i%len(remote)])
	}
}

// benchFullMap builds a 1-host-of-2 cluster where host 0's map has both a
// master range and a populated remote cache. The second host is driven by
// a goroutine so collectives complete.
func benchFullMap(b *testing.B) (m *fullMap[graph.NodeID], remote []graph.NodeID, cleanup func()) {
	b.Helper()
	g := gen.Grid(40, 40, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 2})
	if err != nil {
		b.Fatal(err)
	}
	ready := make(chan *fullMap[graph.NodeID], 1)
	release := make(chan struct{})
	go c.Run(func(h *runtime.Host) {
		mp := newFullMap(Options[graph.NodeID]{
			Host: h, Op: MinNodeID(), Codec: NodeIDCodec{},
		})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			mp.Set(gid, gid)
		})
		mp.InitSync()
		for n := 0; n < h.HP.NumGlobalNodes(); n++ {
			mp.Request(graph.NodeID(n))
		}
		mp.RequestSync()
		if h.Rank == 0 {
			ready <- mp
		}
		<-release
	})
	m = <-ready
	lo, hi := m.masterLo, m.masterHi
	for n := 0; n < m.hp.NumGlobalNodes(); n++ {
		if graph.NodeID(n) < lo || graph.NodeID(n) >= hi {
			remote = append(remote, graph.NodeID(n))
		}
	}
	return m, remote, func() { close(release); c.Close() }
}

// BenchmarkReduceSyncFull measures a whole reduce round (combine + SGR +
// apply) on the Full variant.
func BenchmarkReduceSyncFull(b *testing.B) {
	benchReduceSync(b, 2, 4)
}

// BenchmarkReduceSync8x4 is the headline sync-path microbenchmark: a full
// reduce round on the Full variant at 8 simulated hosts x 4 threads, the
// configuration where the combine and gather passes' per-thread redundancy
// is most expensive.
func BenchmarkReduceSync8x4(b *testing.B) {
	benchReduceSync(b, 8, 4)
}

func benchReduceSync(b *testing.B, hosts, threads int) {
	b.Helper()
	g := gen.RMAT(11, 8, false, 3)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	c.Run(func(h *runtime.Host) {
		m := New(Options[graph.NodeID]{Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		n := h.HP.NumGlobalNodes()
		for i := 0; i < b.N; i++ {
			h.ParFor(1024, func(tid, j int) {
				m.Reduce(tid, graph.NodeID((j*31+i)%n), graph.NodeID(j%n))
			})
			m.ReduceSync()
		}
	})
}

// BenchmarkBroadcastSyncFull measures a dirty-bitmask broadcast round with
// pinned mirrors at 8 hosts x 4 threads.
func BenchmarkBroadcastSyncFull(b *testing.B) {
	g := gen.RMAT(11, 8, false, 3)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 8, ThreadsPerHost: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	c.Run(func(h *runtime.Host) {
		m := New(Options[graph.NodeID]{Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		m.PinMirrors()
		lo, hi := h.HP.MasterRangeGlobal()
		for i := 0; i < b.N; i++ {
			span := int(hi - lo)
			h.ParFor(span/4+1, func(tid, j int) {
				k := lo + graph.NodeID((j*4+i)%span)
				m.Reduce(tid, k, graph.NodeID(i%int(k+1)))
			})
			m.ReduceSync()
			m.BroadcastSync()
		}
	})
}

// BenchmarkDenseCombineSparse measures the dense combine's floor in late,
// sparse rounds: a Full map over 2^20 local IDs (one host, four threads)
// takes 64 reduces per round, so ReduceSync's cost is dominated by the
// combine threads' walk over their ranges' seen words — NumLocal/64/T
// loads per thread and buffer — rather than by the entries. Reported as
// ns per ReduceSync.
func BenchmarkDenseCombineSparse(b *testing.B) {
	const n, threads, reduces = 1 << 20, 4, 64
	g := gen.Chain(n, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 1, ThreadsPerHost: threads})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([]graph.NodeID, 1024*reduces)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = graph.NodeID(r.Intn(n))
	}
	var spent time.Duration
	c.Run(func(h *runtime.Host) {
		m := New(Options[graph.NodeID]{Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		lv := Local(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round := keys[(i%1024)*reduces:][:reduces]
			h.ParFor(reduces, func(tid, j int) {
				lv.Reduce(tid, round[j], round[j]/2)
			})
			start := time.Now()
			m.ReduceSync()
			spent += time.Since(start)
		}
	})
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/ReduceSync")
}
