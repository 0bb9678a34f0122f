package npm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
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
				entries := 0
				for _, word := range b.seen {
					entries += bits.OnesCount64(word)
				}
				if entries != hp.NumLocal() {
					t.Errorf("host %d thread %d: %d dense entries, want one per local proxy (%d)",
						h.Rank, tid, entries, hp.NumLocal())
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
		buf := nl*8 + (nl+63)/64*8 // values, seen words
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

// drainOp is one reduce of the drain-order test: v onto local ID l.
type drainOp struct {
	l graph.NodeID
	v float64
}

// drainSchedule draws the drain-order test's reduces, ops[round][host][tid]
// in issue order, from one seeded source: round 0 touches every local ID
// (some from two threads), round 1 only the even combine ranges, round 2
// only host 0, and round 3 random keys with repeats from every thread.
// Values spread over 40 binades, so a changed fold order shows in the low
// bits of a sum.
func drainSchedule(part *partition.Partitioned, threads int, seed int64) [][][][]drainOp {
	rng := rand.New(rand.NewSource(seed))
	val := func() float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(40)-20) }
	ops := make([][][][]drainOp, 4)
	for r := range ops {
		ops[r] = make([][][]drainOp, part.NumHosts)
		for h, hp := range part.Hosts {
			n := hp.NumLocal()
			ts := make([][]drainOp, threads)
			add := func(l int) {
				tid := rng.Intn(threads)
				ts[tid] = append(ts[tid], drainOp{graph.NodeID(l), val()})
			}
			switch r {
			case 0:
				for l := 0; l < n; l++ {
					add(l)
					if rng.Intn(4) == 0 {
						add(l)
					}
				}
			case 1:
				b := newDenseReduce[float64](n, threads)
				for rg := 0; rg < threads; rg += 2 {
					lo, hi := b.wordRange(rg)
					for l := 64 * lo; l < min(64*hi, n); l++ {
						if rng.Intn(3) == 0 {
							add(l)
						}
					}
				}
			case 2:
				if h == 0 {
					for i := 0; i < n/16; i++ {
						add(rng.Intn(n))
					}
				}
			case 3:
				for i := 0; i < 2*n; i++ {
					add(rng.Intn(n))
				}
			}
			ops[r][h] = ts
		}
	}
	return ops
}

// drainOracle folds one round of ops sequentially, in the order the Full
// map must: each thread's values in issue order, a host's thread partials
// in ascending thread order, then the owner's host partial onto the master
// first and the other hosts' in ascending host order. It advances vals
// (per global ID) and returns which masters changed.
func drainOracle(part *partition.Partitioned, ops [][][]drainOp, vals []float64) (changed []bool) {
	partial := make([][]float64, part.NumHosts) // [host][global]
	seen := make([][]bool, part.NumHosts)
	for h, hp := range part.Hosts {
		partial[h] = make([]float64, part.NumNodes)
		seen[h] = make([]bool, part.NumNodes)
		for _, ts := range ops[h] {
			thread := make(map[graph.NodeID]float64)
			var order []graph.NodeID
			for _, op := range ts {
				if p, ok := thread[op.l]; ok {
					thread[op.l] = p + op.v
				} else {
					thread[op.l] = op.v
					order = append(order, op.l)
				}
			}
			for _, l := range order {
				g := hp.GlobalID(l)
				if seen[h][g] {
					partial[h][g] += thread[l]
				} else {
					partial[h][g], seen[h][g] = thread[l], true
				}
			}
		}
	}
	changed = make([]bool, part.NumNodes)
	apply := func(h int, g graph.NodeID) {
		if seen[h][g] {
			if nv := vals[g] + partial[h][g]; nv != vals[g] {
				vals[g], changed[g] = nv, true
			}
		}
	}
	for g := range vals {
		owner := part.Owner(graph.NodeID(g))
		apply(owner, graph.NodeID(g))
		for h := 0; h < part.NumHosts; h++ {
			if h != owner {
				apply(h, graph.NodeID(g))
			}
		}
	}
	return changed
}

// TestDenseDrainMatchesSequentialOracle is the drain-order property: the
// dense combine walks seen words in ascending local-ID order rather than
// in touch order, and that must not show. Over seeded random rounds — one
// touching every local ID, some leaving whole combine ranges or a whole
// host empty, masters and mirrors alike — every master after ReduceSync,
// every mirror after the broadcast, masterDirty, the frontier's next set
// and IsUpdated must equal, bit for bit, a sequential fold in thread
// order.
func TestDenseDrainMatchesSequentialOracle(t *testing.T) {
	g := gen.Grid(48, 48, false, 1)
	for _, threads := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("T=%d", threads), func(t *testing.T) {
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			part := c.Part
			ops := drainSchedule(part, threads, int64(threads))
			initVal := func(g graph.NodeID) float64 { return math.Ldexp(1+float64(g%7)/7, int(g%30)-15) }
			vals := make([]float64, part.NumNodes)
			for k := range vals {
				vals[k] = initVal(graph.NodeID(k))
			}
			want := make([][]float64, len(ops))
			changed := make([][]bool, len(ops))
			for r := range ops {
				changed[r] = drainOracle(part, ops[r], vals)
				want[r] = append([]float64(nil), vals...)
				if !slices.Contains(changed[r], true) {
					t.Fatalf("round %d changes no master; the schedule tests nothing", r)
				}
			}
			c.Run(func(h *runtime.Host) {
				hp := h.HP
				m := New(Options[float64]{Host: h, Op: SumFloat64(), Codec: Float64Codec{}}).(*fullMap[float64])
				fr := runtime.NewFrontier(hp.NumLocal())
				m.SetFrontier(fr)
				h.ParForNodes(func(_ int, l graph.NodeID) {
					gid := hp.GlobalID(l)
					m.Set(gid, initVal(gid))
				})
				m.InitSync()
				m.PinMirrors()
				fr.Reset()
				lv := Local[float64](m)
				// One driver round per schedule round: the reduces, then
				// the master checks between ReduceSync and the broadcast,
				// then (after the frontier advanced) the proxy checks.
				r := 0
				loop := runtime.Loop{Host: h, Frontier: fr, Quiesce: m, MaxRounds: len(ops),
					Phases: []runtime.Phase{
						{Before: func() {
							h.ParFor(threads, func(_, tid int) {
								for _, op := range ops[r][h.Rank][tid] {
									lv.Reduce(tid, op.l, op.v)
								}
							})
						}, Reduce: []runtime.SyncMap{m}},
						{Before: func() {
							for l := 0; l < hp.NumMasters; l++ {
								gid := hp.GlobalID(graph.NodeID(l))
								if got := m.masters[l]; math.Float64bits(got) != math.Float64bits(want[r][gid]) {
									t.Errorf("host %d round %d: master %d = %v, oracle %v", h.Rank, r, gid, got, want[r][gid])
								}
								if m.masterDirty.Test(l) != changed[r][gid] {
									t.Errorf("host %d round %d: master %d dirty=%v, oracle %v", h.Rank, r, gid, m.masterDirty.Test(l), changed[r][gid])
								}
							}
							if got, exp := m.IsUpdated(), slices.Contains(changed[r], true); got != exp {
								t.Errorf("host %d round %d: IsUpdated = %v, oracle %v", h.Rank, r, got, exp)
							}
						}, Broadcast: []runtime.SyncMap{m}},
					},
					Done: func() bool {
						for l := 0; l < hp.NumLocal(); l++ {
							gid := hp.GlobalID(graph.NodeID(l))
							if got := m.Read(gid); math.Float64bits(got) != math.Float64bits(want[r][gid]) {
								t.Errorf("host %d round %d: local %d (node %d) = %v after broadcast, oracle %v", h.Rank, r, l, gid, got, want[r][gid])
							}
							if fr.IsActive(l) != changed[r][gid] {
								t.Errorf("host %d round %d: local %d active=%v, oracle %v", h.Rank, r, l, fr.IsActive(l), changed[r][gid])
							}
						}
						for tid, b := range m.dense {
							if b != nil && slices.ContainsFunc(b.seen, func(w uint64) bool { return w != 0 }) {
								t.Errorf("host %d round %d: thread %d's buffer keeps seen bits", h.Rank, r, tid)
							}
						}
						r++
						return false
					}}
				if rounds, _ := loop.Run(); rounds != len(ops) {
					t.Errorf("host %d: %d rounds, want %d", h.Rank, rounds, len(ops))
				}
			})
		})
	}
}
