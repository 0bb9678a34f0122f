package npm

import (
	"sync/atomic"
	"testing"

	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// countingCodec wraps the NodeID wire format and counts decodes, so tests
// can assert how many times sync phases read payload entries.
type countingCodec struct{ reads *atomic.Int64 }

func (c countingCodec) Append(b []byte, v graph.NodeID) []byte {
	return comm.AppendUint32(b, uint32(v))
}

func (c countingCodec) Read(b []byte) (graph.NodeID, []byte) {
	c.reads.Add(1)
	u, rest := comm.ReadUint32(b)
	return graph.NodeID(u), rest
}

func (c countingCodec) Size() int { return 4 }

// TestReduceSyncDecodesEachEntryOnce pins the work-linear gather: payload
// sections are addressed to the receiver's gather threads, so each received
// entry is decoded exactly once — not once per gather thread. Every host
// reduces every global key, so after per-host combining each host sends one
// entry per key it does not own: (hosts-1) x numGlobal entries cross the
// wire cluster-wide, and the decode count must equal it exactly. All four
// SGR variants share one reduce frame, so all four must hold it — SGR-only
// and Vite drain their shared partial map into one combine thread's cells.
func TestReduceSyncDecodesEachEntryOnce(t *testing.T) {
	const hosts, threads = 4, 3
	for _, variant := range []Variant{Full, SGRCF, SGROnly, Vite} {
		t.Run(string(variant), func(t *testing.T) {
			g := gen.Grid(12, 12, false, 1)
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var reads atomic.Int64
			c.Run(func(h *runtime.Host) {
				m := New(Options[graph.NodeID]{
					Host:    h,
					Op:      MinNodeID(),
					Codec:   countingCodec{&reads},
					Variant: variant,
				})
				initIdentity(h, m)
				// InitSync may decode (hash variants flush buffered Sets);
				// only gather decodes are under test, so zero the counter
				// once every host is past initialization.
				h.Barrier()
				if h.Rank == 0 {
					reads.Store(0)
				}
				h.Barrier()
				n := h.HP.NumGlobalNodes()
				h.ParFor(n, func(tid, i int) {
					m.Reduce(tid, graph.NodeID(i), graph.NodeID(i))
				})
				m.ReduceSync()
			})
			want := int64((hosts - 1) * g.NumNodes())
			if got := reads.Load(); got != want {
				t.Errorf("%s: gather decoded %d entries, want exactly %d (each byte once)",
					variant, got, want)
			}
		})
	}
}

// syncAllocRound measures cluster-wide allocations per warm sync round:
// host 0 runs testing.AllocsPerRun while the peers execute the identical
// round in lockstep (AllocsPerRun counts the whole process's mallocs, so
// the budget covers every host's round).
func syncAllocRounds(t *testing.T, hosts int, pin bool) float64 {
	t.Helper()
	const warmup, runs = 3, 10
	g := gen.RMAT(9, 8, false, 3)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got float64
	c.Run(func(h *runtime.Host) {
		m := New(Options[graph.NodeID]{Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}})
		initIdentity(h, m)
		if pin {
			m.PinMirrors()
		}
		n := h.HP.NumGlobalNodes()
		reduce := func(tid, j int) {
			m.Reduce(tid, graph.NodeID((j*31)%n), graph.NodeID(j%n))
		}
		round := func() {
			h.ParFor(512, reduce)
			m.ReduceSync()
			if pin {
				m.BroadcastSync()
			}
		}
		for i := 0; i < warmup; i++ {
			round()
		}
		if h.Rank == 0 {
			got = testing.AllocsPerRun(runs, round)
		} else {
			// AllocsPerRun executes its argument 1+runs times; the other
			// hosts must match it round for round or the collectives hang.
			for i := 0; i < runs+1; i++ {
				round()
			}
		}
	})
	return got
}

// TestReduceSyncSteadyStateAllocs bounds cluster-wide allocations of a warm
// ReduceSync round. The only remaining per-round allocations are the timer
// and parallel-loop closures (a handful per host); payload buffers, receive
// slices, and thread-local maps are all reused.
func TestReduceSyncSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget only holds unraced")
	}
	const budget = 16 // measured ~4 (timer/loop closures); 4x headroom
	if got := syncAllocRounds(t, 2, false); got > budget {
		t.Errorf("warm ReduceSync round allocates %.1f objects cluster-wide, budget %d",
			got, budget)
	}
}

// TestBroadcastSyncSteadyStateAllocs bounds a warm ReduceSync +
// BroadcastSync round with pinned mirrors.
func TestBroadcastSyncSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget only holds unraced")
	}
	const budget = 24 // measured ~4; 6x headroom
	if got := syncAllocRounds(t, 2, true); got > budget {
		t.Errorf("warm ReduceSync+BroadcastSync round allocates %.1f objects cluster-wide, budget %d",
			got, budget)
	}
}
