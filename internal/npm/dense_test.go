package npm

import (
	"fmt"
	"math"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// splitValue is the j-th value host h's thread tid reduces onto key k in
// round r. Magnitudes spread over 40 binades, so any change in the order
// partials are folded shows up in the low bits of a float sum.
func splitValue(r, h, tid, k, j int) float64 {
	frac := 1 + float64((7*k+13*h+29*tid+3*j+r)%97)/97
	return math.Ldexp(frac, (k+3*h+5*tid+j+r)%40-20)
}

// splitReduces returns how many values each thread of every host reduces
// onto key k in round r: two onto every key in round 0, one onto every
// third key in round 1, so round 1 also checks that round 0 left nothing
// behind.
func splitReduces(r, k int) (reps int) {
	if r == 0 {
		return 2
	}
	if k%3 == 0 {
		return 1
	}
	return 0
}

// splitExpected folds, in the order the Full map must, every contribution
// to key k in round r onto prev: each host's thread partials combine in
// ascending thread order, the owner's host partial lands first, and the
// other hosts' follow in ascending host order (the gather order).
func splitExpected(prev float64, r, k, hosts, threads, owner int) float64 {
	reps := splitReduces(r, k)
	if reps == 0 {
		return prev
	}
	hostPartial := func(h int) float64 {
		var acc float64
		for tid := 0; tid < threads; tid++ {
			p := splitValue(r, h, tid, k, 0)
			for j := 1; j < reps; j++ {
				p += splitValue(r, h, tid, k, j)
			}
			if tid == 0 {
				acc = p
			} else {
				acc += p
			}
		}
		return acc
	}
	v := prev + hostPartial(owner)
	for h := 0; h < hosts; h++ {
		if h != owner {
			v += hostPartial(h)
		}
	}
	return v
}

// TestFullDenseHashSplit reduces, in one round, onto masters, unpinned and
// pinned mirrors, and keys that are not local proxies at all, and checks
// that the Full map routes the local proxies through the dense buffers and
// the rest through the hash maps, that master values are bit-identical to a
// sequential fold, and that a second round starts from empty buffers. The
// graph gives every host a local-ID count that is not a multiple of 64 and
// is below 64·T, so some combine ranges are empty.
func TestFullDenseHashSplit(t *testing.T) {
	g := gen.Grid(12, 12, false, 1)
	for _, hosts := range []int{2, 3} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%dh%dt", hosts, threads), func(t *testing.T) {
				c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.Run(func(h *runtime.Host) {
					for _, pin := range []bool{false, true} {
						checkDenseHashSplit(t, h, pin)
					}
				})
			})
		}
	}
}

func checkDenseHashSplit(t *testing.T, h *runtime.Host, pin bool) {
	hp := h.HP
	n, threads := hp.NumGlobalNodes(), h.Threads
	if nl := hp.NumLocal(); nl%64 == 0 || nl >= 64*3 || nl == n || hp.NumMirrors() == 0 {
		t.Fatalf("host %d: %d local proxies (%d mirrors) of %d nodes: the graph no longer covers every case",
			h.Rank, nl, hp.NumMirrors(), n)
	}
	m := New(Options[float64]{Host: h, Op: SumFloat64(), Codec: Float64Codec{}})
	fm := m.(*fullMap[float64])
	h.ParForNodes(func(_ int, l graph.NodeID) {
		gid := hp.GlobalID(l)
		m.Set(gid, float64(gid))
	})
	m.InitSync()
	if pin {
		m.PinMirrors()
	}
	want := make([]float64, n)
	for k := range want {
		want[k] = float64(k)
	}

	for r := 0; r < 2; r++ {
		// Item i runs on exactly one worker, so reducing as thread i is
		// race free and gives every thread a fixed sequence of values.
		h.ParFor(threads, func(_, tid int) {
			for k := 0; k < n; k++ {
				for j := 0; j < splitReduces(r, k); j++ {
					m.Reduce(tid, graph.NodeID(k), splitValue(r, h.Rank, tid, k, j))
				}
			}
		})
		if r == 0 {
			for tid := 0; tid < threads; tid++ {
				b := fm.dense[tid]
				touched := 0
				for _, list := range b.touched {
					touched += len(list)
				}
				if touched != hp.NumLocal() {
					t.Errorf("host %d thread %d: %d dense entries, want one per local proxy (%d)",
						h.Rank, tid, touched, hp.NumLocal())
				}
				hashed := 0
				for _, bucket := range fm.tl[tid].buckets {
					bucket.ForEach(func(k graph.NodeID, _ float64) {
						hashed++
						if _, local := hp.LocalID(k); local {
							t.Errorf("host %d: local proxy %d reduced through the hash path", h.Rank, k)
						}
					})
				}
				if hashed != n-hp.NumLocal() {
					t.Errorf("host %d thread %d: %d hashed keys, want %d", h.Rank, tid, hashed, n-hp.NumLocal())
				}
			}
		}
		m.ReduceSync()
		if pin {
			m.BroadcastSync()
		}
		for tid, b := range fm.dense {
			for w, word := range b.seen {
				if word != 0 {
					t.Errorf("host %d thread %d round %d: seen word %d = %#x after ReduceSync", h.Rank, tid, r, w, word)
				}
			}
			for rg, list := range b.touched {
				if len(list) != 0 {
					t.Errorf("host %d thread %d round %d: range %d keeps %d touched IDs", h.Rank, tid, r, rg, len(list))
				}
			}
		}
		for k := range want {
			want[k] = splitExpected(want[k], r, k, hp.NumHosts(), threads, hp.Owner(graph.NodeID(k)))
		}
		for l := 0; l < hp.NumLocal(); l++ {
			if l >= hp.NumMasters && !pin {
				break
			}
			gid := hp.GlobalID(graph.NodeID(l))
			if got := m.Read(gid); math.Float64bits(got) != math.Float64bits(want[gid]) {
				t.Errorf("host %d pin=%v round %d: node %d (local %d) = %v, want %v",
					h.Rank, pin, r, gid, l, got, want[gid])
			}
		}
	}
}

// TestDenseReduceFootprint checks the memory accounting of the dense
// buffers: a map that only Sets reports none, and a thread's first reduce to
// a local proxy raises the footprint by exactly one buffer.
func TestDenseReduceFootprint(t *testing.T) {
	g := gen.Grid(8, 8, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(h *runtime.Host) {
		m := New(Options[float64]{Host: h, Op: SumFloat64(), Codec: Float64Codec{}})
		fm := m.(*fullMap[float64])
		h.ParForNodes(func(_ int, l graph.NodeID) { m.Set(h.HP.GlobalID(l), 1) })
		m.InitSync()
		// Nothing reduced: no buffer. Two rounds also size both
		// generations of the double-buffered send payloads, so the
		// footprint moves below only by what the reduces add.
		m.ReduceSync()
		m.ReduceSync()
		for tid, b := range fm.dense {
			if b != nil {
				t.Errorf("host %d: Set-only map holds a dense buffer for thread %d", h.Rank, tid)
			}
		}
		nl := int64(h.HP.NumLocal())
		buf := nl*(8+4) + (nl+63)/64*8 // values, touched IDs, seen words
		base := FootprintOf(m)
		lo, _ := h.HP.MasterRangeGlobal()
		m.Reduce(1, lo, 2)
		if got := FootprintOf(m) - base; got != buf {
			t.Errorf("host %d: first Reduce added %d bytes, want one buffer (%d)", h.Rank, got, buf)
		}
		m.Reduce(1, lo, 2)
		if got := FootprintOf(m) - base; got != buf {
			t.Errorf("host %d: second Reduce grew the footprint to +%d, want +%d", h.Rank, got, buf)
		}
		// Thread 0 never reduced, so the combine allocates its
		// accumulator: a second buffer, and none after that.
		m.ReduceSync()
		if got := FootprintOf(m) - base; got != 2*buf {
			t.Errorf("host %d: after ReduceSync footprint +%d, want two buffers (%d)", h.Rank, got, 2*buf)
		}
		if got := m.Read(lo); got != 5 {
			t.Errorf("host %d: master %d = %v, want 5", h.Rank, lo, got)
		}
	})
}
