package npm

import (
	"fmt"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

// viewDelta is the pseudo-random reduce input for local proxy l from pass
// p: a value at most the proxy's global ID, so about half the min-reduces
// lower a label and the rest are ineffective.
func viewDelta(gid graph.NodeID, p int) graph.NodeID {
	x := uint32(gid)*2654435761 + uint32(p)*40503
	return graph.NodeID(x % (uint32(gid) + 1))
}

// viewRun is what one host observes of a map after the reduce round of
// TestLocalViewMatchesGlobal.
type viewRun struct {
	values       []graph.NodeID // per local ID, before the reduces
	masters      []graph.NodeID // per master local ID, after the reduces
	updated      bool
	active       []bool // per local ID: the frontier's next set (Full only)
	readsMaster  int64
	readsRemote  int64
	msgs, bytes  int64
	frontierSeen bool
}

// TestLocalViewMatchesGlobal pins npm.Local to the global-ID API on every
// variant: Value(l) equals Read(GlobalID(l)) for every local proxy, and
// reduces through the view leave the same masters, IsUpdated, frontier
// next set, read counters and comm bytes as the same reduces addressed by
// global ID. Each host runs the round twice — once per addressing, on two
// maps with the same initial values — and compares the two runs.
func TestLocalViewMatchesGlobal(t *testing.T) {
	const hosts, threads = 3, 3
	g := gen.RMAT(7, 4, false, 3)
	for _, v := range []Variant{Full, SGRCF, SGROnly, MC, Vite} {
		for _, pin := range []bool{true, false} {
			name := fmt.Sprintf("%s/pinned=%v", v, pin)
			t.Run(name, func(t *testing.T) {
				c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				store := kvstore.NewCluster(hosts, hosts)
				c.Run(func(h *runtime.Host) {
					viaView := viewRound(h, v, store, pin, true)
					viaGlobal := viewRound(h, v, store, pin, false)
					compareViewRuns(t, h.Rank, viaView, viaGlobal)
				})
			})
		}
	}
}

// viewRound builds a fresh map, reads every local proxy and reduces into
// every local proxy twice (from two passes with different values), either
// through the local view or by global ID, then syncs.
func viewRound(h *runtime.Host, v Variant, store MCStore, pin, view bool) viewRun {
	m := New(Options[graph.NodeID]{
		Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}, Variant: v, Store: store, TrackReads: true,
	})
	initIdentity(h, m)
	var fr *runtime.Frontier
	if sink, ok := m.(FrontierSink); ok {
		fr = runtime.NewFrontier(h.HP.NumLocal())
		sink.SetFrontier(fr)
	}
	if pin {
		m.PinMirrors()
	}
	// Unpinned mirrors, and on the hash-distributed variants any proxy,
	// are read through the request cache; the rest of the requests are
	// no-ops.
	for l := 0; l < h.HP.NumLocal(); l++ {
		m.Request(h.HP.GlobalID(graph.NodeID(l)))
	}
	m.RequestSync()
	lv := Local(m)
	n := h.HP.NumLocal()
	var run viewRun
	run.values = make([]graph.NodeID, n)
	for l := range run.values {
		if view {
			run.values[l] = lv.Value(graph.NodeID(l))
		} else {
			run.values[l] = m.Read(h.HP.GlobalID(graph.NodeID(l)))
		}
	}
	run.readsMaster, run.readsRemote = m.ReadStats()
	if fr != nil {
		// Drop the pin-time mirror activations: only the reduce round's
		// activations are compared.
		fr.Reset()
	}

	// One driver round: both reduce passes, ReduceSync, the broadcast
	// when pinned, then the frontier advance.
	var bcast []runtime.SyncMap
	if pin {
		bcast = []runtime.SyncMap{m}
	}
	msgs0, bytes0 := h.EP.Stats()
	round := runtime.Loop{Host: h, Frontier: fr, Quiesce: m, MaxRounds: 1,
		Phases: []runtime.Phase{{Before: func() {
			for p := 0; p < 2; p++ {
				h.ParForNodes(func(tid int, l graph.NodeID) {
					gid := h.HP.GlobalID(l)
					if view {
						lv.Reduce(tid, l, viewDelta(gid, p))
					} else {
						m.Reduce(tid, gid, viewDelta(gid, p))
					}
				})
			}
		}, Reduce: []runtime.SyncMap{m}, Broadcast: bcast}},
		Done: func() bool {
			msgs1, bytes1 := h.EP.Stats()
			run.msgs, run.bytes = msgs1-msgs0, bytes1-bytes0
			run.updated = m.IsUpdated()
			return true
		}}
	round.Run()
	if fr != nil {
		run.frontierSeen = true
		run.active = make([]bool, n)
		for l := range run.active {
			run.active[l] = fr.IsActive(l)
		}
	}

	// Master values last: reading them needs a request round on the
	// hash-distributed variants, which would move the counters above.
	for l := 0; l < h.HP.NumMasters; l++ {
		m.Request(h.HP.GlobalID(graph.NodeID(l)))
	}
	m.RequestSync()
	run.masters = make([]graph.NodeID, h.HP.NumMasters)
	for l := range run.masters {
		run.masters[l] = m.Read(h.HP.GlobalID(graph.NodeID(l)))
	}
	return run
}

func compareViewRuns(t *testing.T, rank int, got, want viewRun) {
	t.Helper()
	for l := range want.values {
		if got.values[l] != want.values[l] {
			t.Errorf("host %d: Value(%d) = %d, Read(GlobalID) = %d", rank, l, got.values[l], want.values[l])
			return
		}
	}
	for l := range want.masters {
		if got.masters[l] != want.masters[l] {
			t.Errorf("host %d: master %d = %d after view reduces, %d after global reduces",
				rank, l, got.masters[l], want.masters[l])
			return
		}
	}
	if got.updated != want.updated || !want.updated {
		t.Errorf("host %d: IsUpdated %v through the view, %v by global ID (want true)", rank, got.updated, want.updated)
	}
	if got.readsMaster != want.readsMaster || got.readsRemote != want.readsRemote {
		t.Errorf("host %d: ReadStats (%d, %d) through the view, (%d, %d) by global ID",
			rank, got.readsMaster, got.readsRemote, want.readsMaster, want.readsRemote)
	}
	if got.msgs != want.msgs || got.bytes != want.bytes {
		t.Errorf("host %d: sync sent %d messages, %d bytes through the view, %d, %d by global ID",
			rank, got.msgs, got.bytes, want.msgs, want.bytes)
	}
	if got.frontierSeen != want.frontierSeen {
		t.Errorf("host %d: frontier attached on one run only", rank)
		return
	}
	for l := range want.active {
		if got.active[l] != want.active[l] {
			t.Errorf("host %d: local %d active=%v through the view, %v by global ID", rank, l, got.active[l], want.active[l])
			return
		}
	}
}

// TestDenseCombineMarksMatchAtomicPath pins the dense combine's
// single-writer word marks (par.Bitset.OrWordOwned,
// Frontier.ActivateWordOwned): after a reduce round, masterDirty and the
// frontier's next set must equal, bit for bit, the sets a CAS per changed
// master (par.Bitset.Set) builds — the masters whose value changed, and
// nothing else. Thread counts 2, 3 and 5 split the local-ID space into
// combine ranges whose boundaries fall inside the master range, so
// neighboring combine threads own adjacent words of the same bitsets;
// remote partials applied by the gather pass (CAS marks) land in the same
// words.
func TestDenseCombineMarksMatchAtomicPath(t *testing.T) {
	const hosts = 2
	g := gen.Grid(48, 48, false, 1)
	for _, threads := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("T=%d", threads), func(t *testing.T) {
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Run(func(h *runtime.Host) {
				m := New(Options[graph.NodeID]{Host: h, Op: MinNodeID(), Codec: NodeIDCodec{}}).(*fullMap[graph.NodeID])
				nm, n := h.HP.NumMasters, h.HP.NumLocal()
				if threads > 1 {
					b := newDenseReduce[graph.NodeID](n, threads)
					if lo, _ := b.wordRange(1); lo <= 0 || 64*lo >= nm {
						t.Errorf("host %d: combine range 1 starts at local ID %d, want inside the %d masters", h.Rank, 64*lo, nm)
					}
				}
				fr := runtime.NewFrontier(n)
				m.SetFrontier(fr)
				initIdentity(h, m)
				m.PinMirrors()
				lv := Local[graph.NodeID](m)
				for round := 0; round < 3; round++ {
					before := append([]graph.NodeID(nil), m.masters...)
					fr.Reset()
					want := par.NewBitset(nm)
					// One driver round that ends at ReduceSync, so the
					// frontier holds the combine's marks alone.
					(&runtime.Loop{Host: h, Frontier: fr, Quiesce: m, MaxRounds: 1,
						Phases: []runtime.Phase{{Before: func() {
							// Every thread reduces into a scattered subset of
							// the local proxies, masters and mirrors alike.
							h.ParFor(3*n, func(tid, i int) {
								l := graph.NodeID((i * 7919) % n)
								if (i+round)%3 != 0 {
									lv.Reduce(tid, l, viewDelta(h.HP.GlobalID(l), i+round))
								}
							})
						}, Reduce: []runtime.SyncMap{m}}},
						Done: func() bool {
							for i := range before {
								if m.masters[i] != before[i] {
									want.Set(i)
								}
							}
							if want.Count() == 0 {
								t.Errorf("host %d round %d: no master changed; the test reduces nothing", h.Rank, round)
							}
							for w := 0; w < want.Words(); w++ {
								if got, exp := m.masterDirty.MaskedWord(w), want.MaskedWord(w); got != exp {
									t.Errorf("host %d round %d: masterDirty word %d = %#x, CAS path %#x", h.Rank, round, w, got, exp)
								}
							}
							return true
						}}).Run()
					for l := 0; l < n; l++ {
						if fr.IsActive(l) != (l < nm && want.Test(l)) {
							t.Errorf("host %d round %d: local %d active=%v, CAS path %v",
								h.Rank, round, l, fr.IsActive(l), l < nm && want.Test(l))
							break
						}
					}
					m.BroadcastSync()
				}
			})
		})
	}
}
