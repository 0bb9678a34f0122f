package npm

import (
	"math"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/runtime"
)

// Float-valued property maps back the community-detection and MIS
// algorithms; exercise them across all variants.

func runFloatVariant(t *testing.T, hosts int, v Variant,
	prog func(h *runtime.Host, m Map[float64])) {
	t.Helper()
	g := gen.Grid(6, 6, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	store := kvstore.NewCluster(hosts, hosts)
	c.Run(func(h *runtime.Host) {
		m := New(Options[float64]{
			Host: h, Op: SumFloat64(), Codec: Float64Codec{}, Variant: v, Store: store,
		})
		prog(h, m)
	})
}

func TestFloatSumReduceAllVariants(t *testing.T) {
	for _, v := range Variants {
		t.Run(string(v), func(t *testing.T) {
			runFloatVariant(t, 3, v, func(h *runtime.Host, m Map[float64]) {
				h.ParForNodes(func(_ int, l graph.NodeID) {
					m.Set(h.HP.GlobalID(l), 0)
				})
				m.InitSync()
				// Every host adds 1.5 to node 7 from each of 4 threads.
				h.ParFor(4, func(tid, _ int) { m.Reduce(tid, 7, 1.5) })
				m.ReduceSync()
				m.Request(7)
				m.RequestSync()
				want := 1.5 * 4 * 3 // threads x hosts
				if got := m.Read(7); math.Abs(got-want) > 1e-9 {
					t.Errorf("host %d: sum = %v, want %v", h.Rank, got, want)
				}
			})
		})
	}
}

func TestOverwriteSemantics(t *testing.T) {
	g := gen.Grid(4, 4, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(h *runtime.Host) {
		m := New(Options[graph.NodeID]{
			Host: h, Op: Overwrite[graph.NodeID](), Codec: NodeIDCodec{},
		})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		// Each node's owner overwrites its own value; single writer.
		lo, hi := h.HP.MasterRangeGlobal()
		m.ResetUpdated()
		for n := lo; n < hi; n++ {
			m.Reduce(0, n, n+100)
		}
		m.ReduceSync()
		if !m.IsUpdated() {
			t.Errorf("host %d: overwrite not flagged as update", h.Rank)
		}
		for n := lo; n < hi; n++ {
			if got := m.Read(n); got != n+100 {
				t.Errorf("host %d: Read(%d) = %d, want %d", h.Rank, n, got, n+100)
			}
		}
	})
}

func TestMinFloatReduce(t *testing.T) {
	g := gen.Grid(4, 4, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(h *runtime.Host) {
		m := New(Options[float64]{
			Host: h, Op: MinFloat64(), Codec: Float64Codec{},
		})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			m.Set(h.HP.GlobalID(l), math.Inf(1))
		})
		m.InitSync()
		m.Reduce(0, 3, float64(h.Rank)+0.25)
		m.ReduceSync()
		m.Request(3)
		m.RequestSync()
		if got := m.Read(3); got != 0.25 {
			t.Errorf("host %d: min = %v, want 0.25", h.Rank, got)
		}
	})
}

func TestConflictCounterCFIsZero(t *testing.T) {
	// The conflict-free variants must never contend during reductions;
	// the shared-map variants may (and on multicore hardware will).
	g := gen.RMAT(8, 8, false, 3)
	for _, v := range []Variant{Full} {
		ResetConflicts()
		c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 4})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(func(h *runtime.Host) {
			m := New(Options[graph.NodeID]{
				Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}, Variant: v,
			})
			h.ParForNodes(func(_ int, l graph.NodeID) {
				gid := h.HP.GlobalID(l)
				m.Set(gid, gid)
			})
			m.InitSync()
			h.ParFor(5000, func(tid, i int) {
				m.Reduce(tid, graph.NodeID(i%g.NumNodes()), 0)
			})
			m.ReduceSync()
		})
		c.Close()
		if got := ConflictCount(); got != 0 {
			t.Errorf("variant %s: %d conflicts, want 0 by construction", v, got)
		}
	}
}

func TestMaxNodeIDOp(t *testing.T) {
	op := MaxNodeID()
	if op.Combine(3, 7) != 7 || op.Combine(7, 3) != 7 {
		t.Fatal("max op broken")
	}
	if !op.HasIdentity || op.Identity != 0 {
		t.Fatal("max identity should be 0")
	}
}

func TestUint64Codec(t *testing.T) {
	c := Uint64Codec{}
	buf := c.Append(nil, 0xdeadbeefcafe)
	if len(buf) != c.Size() {
		t.Fatalf("size %d != %d", len(buf), c.Size())
	}
	v, rest := c.Read(buf)
	if v != 0xdeadbeefcafe || len(rest) != 0 {
		t.Fatalf("round trip: %x", v)
	}
}

func TestMemoryFootprintReported(t *testing.T) {
	g := gen.Grid(8, 8, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	store := kvstore.NewCluster(2, 2)
	c.Run(func(h *runtime.Host) {
		sizes := map[Variant]int64{}
		for _, v := range Variants {
			m := New(Options[graph.NodeID]{
				Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}, Variant: v, Store: store,
			})
			h.ParForNodes(func(_ int, l graph.NodeID) {
				gid := h.HP.GlobalID(l)
				m.Set(gid, gid)
			})
			m.InitSync()
			m.PinMirrors()
			fp := FootprintOf(m)
			if fp <= 0 {
				t.Errorf("variant %s reported footprint %d", v, fp)
			}
			sizes[v] = fp
			m.UnpinMirrors()
		}
		// The Full variant materializes masters densely; it must report at
		// least the master vector.
		lo, hi := h.HP.MasterRangeGlobal()
		if sizes[Full] < int64(hi-lo)*4 {
			t.Errorf("Full footprint %d below master vector size", sizes[Full])
		}
	})
}

func TestFootprintOfNonReporter(t *testing.T) {
	if FootprintOf(42) != 0 {
		t.Fatal("non-reporter should yield 0")
	}
}

// The §14 dense translation structures must show up in the accounting: the
// partition's global→local table, and the cache slot table once remote
// requests have materialized a cache.
func TestMemoryFootprintIncludesTranslationTables(t *testing.T) {
	g := gen.Grid(8, 8, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(h *runtime.Host) {
		m := New(Options[graph.NodeID]{
			Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}, Variant: Full,
		})
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		tf := h.HP.TranslationFootprint()
		if want := int64(h.HP.NumGlobalNodes()) * 4; tf != want {
			t.Errorf("host %d: translation footprint %d, want the dense local table's %d", h.Rank, tf, want)
		}
		before := FootprintOf(m)
		lo, hi := h.HP.MasterRangeGlobal()
		if before < int64(hi-lo)*4+tf {
			t.Errorf("host %d: footprint %d misses translation tables (%d)", h.Rank, before, tf)
		}
		// Request a value mastered on the other host: the response cache
		// brings the dense cache slot table with it.
		var remote graph.NodeID
		if lo > 0 {
			remote = 0
		} else {
			remote = hi
		}
		m.Request(remote)
		m.RequestSync()
		after := FootprintOf(m)
		if after < before+int64(h.HP.NumGlobalNodes())*4 {
			t.Errorf("host %d: footprint %d..%d does not account the cache slot table", h.Rank, before, after)
		}
	})
}
