package algorithms

import (
	"math"

	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// Priority-based maximal independent set (Burtscher et al.), an
// adjacent-vertex program (Table 2). Each node gets a static priority
// derived from its global degree, ties broken by a pseudo-random bijection
// of its original ID (graph.MISPriority, the rule every MIS here shares);
// each round a node joins the set when its priority beats every undecided
// neighbor's, and neighbors of new members drop out. The result is the
// greedy MIS in priority order, so it does not depend on the partition,
// the round shape, or the vertex numbering.
//
// Under vertex-cut partitioning a proxy sees only part of a node's
// adjacency, so "beats every neighbor" is itself computed with a
// reduction: every edge location min-reduces the undecided neighbor's
// priority onto the node, and the master compares against its own
// priority. The paper's MIS uses two node-property maps (priority and
// state); the minimum-neighbor-priority map, re-initialized every round,
// makes a third here.

// Node states, ordered so the max reduction only moves a node forward:
// undecided -> out -> in. Adjacent nodes can never both enter in one round
// (priorities are distinct), so in/out conflicts cannot arise.
const (
	misUndecided graph.NodeID = 0
	misOut       graph.NodeID = 1
	misIn        graph.NodeID = 2
)

// MISStats reports per-run counters.
type MISStats struct {
	Rounds int
	Size   int64 // members of the independent set
}

// MIS computes a maximal independent set (SPMD). out[n] is set true for
// members, filled for this host's master range.
func MIS(h *runtime.Host, cfg Config, out []bool) MISStats {
	local := h.HP.Local

	// Phase 1: global degrees (local degrees are partial under vertex
	// cuts), then static priorities (graph.MISPriority): lower score =
	// higher priority; low-degree nodes win, ties broken by a hash of the
	// original ID, so scores are distinct.
	degree := cfg.newFloatMap(h, npm.SumFloat64())
	h.ParForNodes(func(_ int, n graph.NodeID) { degree.Set(h.HP.GlobalID(n), 0) })
	degree.InitSync()
	h.TimeCompute(func() {
		h.ParForNodes(func(tid int, n graph.NodeID) {
			if d := local.Degree(n); d > 0 {
				degree.Reduce(tid, h.HP.GlobalID(n), float64(d))
			}
		})
	})
	degree.ReduceSync()

	prio := cfg.newFloatMap(h, npm.MinFloat64())
	if cfg.requestActive() {
		requestLocalProxies(h, degree)
	}
	nGlobal := uint64(h.HP.NumGlobalNodes())
	h.ParForMasters(func(_ int, n graph.NodeID) {
		gid := h.HP.GlobalID(n)
		// Exact in the float64 map while degree·(n+1)+n < 2^53.
		p := graph.MISPriority(uint64(degree.Read(gid)), uint64(h.HP.OriginalID(gid)), nGlobal)
		prio.Set(gid, float64(p))
	})
	prio.InitSync()
	prio.PinMirrors()

	state := cfg.newNodeMap(h, npm.MaxNodeID())
	h.ParForNodes(func(_ int, n graph.NodeID) {
		state.Set(h.HP.GlobalID(n), misUndecided)
	})
	state.InitSync()
	state.PinMirrors()

	// The frontier is the undecided set, managed by the algorithm itself
	// (no map hook needed, so it works on every backend): a proxy leaves it
	// permanently once its state is decided, and every MIS phase only ever
	// needs to visit undecided proxies — decided nodes contribute nothing
	// to minNbr, cannot re-decide, and knocked out all their undecided
	// neighbors in the round they joined the set.
	var fr *runtime.Frontier
	if !cfg.Dense {
		fr = runtime.NewFrontier(h.HP.NumLocal())
		fr.ActivateAll()
		fr.Advance()
	}

	// Round shapes (see Strategy). Pull: under a pull-complete partition
	// each of the three stages has a bottom-up form over the in-edge CSR —
	// accumulate computes each undecided master's complete
	// minimum-neighbor priority locally (no minNbr reduce collective at
	// all), decide writes only the master's own slot, and knockout scans
	// each undecided master's in-neighbors for a fresh member instead of
	// scattering misOut. Every stage updates masters in place and ends
	// with at most a broadcast. The pull decision reuses the globally-synced
	// `remaining` count from the previous round (every host already has
	// it), so adaptive rounds add no collectives.
	//
	// Async: the three stages become priority drains (high-degree vertices
	// first — they knock out the most neighbors). Only the knockout stage
	// writes state concurrently with reads, so it and the decide stage go
	// through the CAS handle; the accumulate stage only buffers minNbr
	// reduces and merely gains the scheduler. The round structure and
	// every collective stay exactly as in bsp, so the per-round decisions —
	// and the final set — are bit-identical in every shape.
	pol := cfg.newPolicy(h, fr, state, pullExact)
	avg := 1
	if h.HP.NumLocal() > 0 {
		avg = int(local.NumEdges()) / h.HP.NumLocal()
	}
	misOpts := runtime.AsyncOpts{Levels: 2, Priority: degreePriority(local, avg)}

	// Minimum priority among each node's undecided neighbors, accumulated
	// from every edge location — except in a pull round, where each
	// undecided master computes the complete minimum from its in-edges (all
	// present under a pull-complete partition) and the collective is
	// skipped entirely. One map serves every round: each round re-Sets the
	// masters to +Inf, which every variant overwrites in place, so the
	// master vector and reduce buffers are reused instead of rebuilt.
	minNbr := cfg.newFloatMap(h, npm.MinFloat64())

	var stats MISStats
	var remaining runtime.CountReducer
	// Globally-synced undecided-master count driving the pull rule; every
	// master starts undecided, so the first round's density is the full
	// master count on every host without a collective.
	undecided := int64(0)
	if pol != nil {
		undecided = pol.totalMasters
	}
	for {
		stats.Rounds++
		k := pol.nextFromActive(undecided, fr)
		var drain runtime.DrainStats

		h.ParForMasters(func(_ int, n graph.NodeID) {
			minNbr.Set(h.HP.GlobalID(n), math.Inf(1))
		})
		minNbr.InitSync()
		if cfg.requestActive() {
			requestLocalProxies(h, state)
			requestLocalProxies(h, prio)
		}
		if k == roundPull {
			phMin, _ := npm.Pull(minNbr)
			phMin.BeginPullRound()
			h.TimeCompute(func() {
				h.ParForPull(func(_ int, n graph.NodeID) {
					gid := h.HP.GlobalID(n)
					if state.Read(gid) != misUndecided {
						return
					}
					lo, hi := local.InEdgeRange(n)
					for e := lo; e < hi; e++ {
						sgid := h.HP.GlobalID(local.InSrc(e))
						if sgid != gid && state.Read(sgid) == misUndecided {
							phMin.Apply(n, prio.Read(sgid))
						}
					}
				})
			})
			phMin.EndPullRound()
		} else {
			accBody := func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				if state.Read(gid) != misUndecided {
					return
				}
				lo, hi := local.EdgeRange(n)
				for e := lo; e < hi; e++ {
					dgid := h.HP.GlobalID(local.Dst(e))
					if dgid != gid && state.Read(dgid) == misUndecided {
						minNbr.Reduce(tid, gid, prio.Read(dgid))
					}
				}
			}
			h.TimeCompute(func() {
				if k == roundAsync {
					d := h.AsyncDrain(fr, misOpts, func(tid int, n graph.NodeID, _ *runtime.AsyncCtx) {
						accBody(tid, n)
					})
					drain.Accumulate(d)
				} else if fr != nil {
					h.ParForActive(fr, accBody)
				} else {
					h.ParForNodes(accBody)
				}
			})
			minNbr.ReduceSync()
		}

		// Decision: an undecided master with priority below all undecided
		// neighbors joins the set.
		if cfg.requestActive() {
			requestLocalProxies(h, state)
			requestLocalProxies(h, minNbr)
			requestLocalProxies(h, prio)
		}
		state.ResetUpdated()
		if k == roundPull {
			// Each master decides only itself, so a pull round needs no
			// state reduce collective at all: write the own slot through
			// the handle and publish with the broadcast below.
			ph := pol.ph
			ph.BeginPullRound()
			h.TimeCompute(func() {
				h.ParForPull(func(_ int, n graph.NodeID) {
					if ph.Value(n) != misUndecided {
						return
					}
					gid := h.HP.GlobalID(n)
					if prio.Read(gid) < minNbr.Read(gid) {
						ph.Apply(n, misIn)
					}
				})
			})
			ph.EndPullRound()
		} else {
			decBody := func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				if state.Read(gid) != misUndecided {
					return
				}
				if prio.Read(gid) < minNbr.Read(gid) {
					state.Reduce(tid, gid, misIn)
				}
			}
			h.TimeCompute(func() {
				nm := h.HP.NumMasters
				if k == roundAsync {
					// Each master decides only itself, but neighboring masters
					// decide concurrently in the same drain, so state moves
					// through the CAS handle.
					sh := pol.ah
					d := h.AsyncDrain(fr, misOpts, func(tid int, n graph.NodeID, _ *runtime.AsyncCtx) {
						if int(n) >= nm {
							return
						}
						gid := h.HP.GlobalID(n)
						if st, ok := sh.Load(gid); !ok || st != misUndecided {
							return
						}
						if prio.Read(gid) < minNbr.Read(gid) {
							sh.ReduceAsync(tid, gid, misIn)
						}
					})
					drain.Accumulate(d)
				} else if fr != nil {
					h.ParForActive(fr, func(tid int, n graph.NodeID) {
						if int(n) < nm {
							decBody(tid, n)
						}
					})
				} else {
					h.ParForMasters(decBody)
				}
			})
			state.ReduceSync()
		}
		state.BroadcastSync()

		// Knock-out: undecided neighbors of new members drop out. The
		// frontier holds last round's undecided proxies, so a misIn state
		// there means the node joined *this* round — exactly the members
		// whose neighbors still need knocking out.
		if cfg.requestActive() {
			requestLocalProxies(h, state)
		}
		if k == roundPull {
			// Bottom-up knockout: an undecided master drops out when any
			// in-neighbor just joined the set. Value reads the post-decide
			// snapshot (masters) and the freshly broadcast mirrors, the
			// same values the push body's round-start reads see; the write
			// targets only the own slot, so again no reduce collective.
			ph := pol.ph
			ph.BeginPullRound()
			h.TimeCompute(func() {
				h.ParForPull(func(_ int, n graph.NodeID) {
					if ph.Value(n) != misUndecided {
						return
					}
					gid := h.HP.GlobalID(n)
					lo, hi := local.InEdgeRange(n)
					for e := lo; e < hi; e++ {
						s := local.InSrc(e)
						if h.HP.GlobalID(s) != gid && ph.Value(s) == misIn {
							ph.Apply(n, misOut)
							break
						}
					}
				})
			})
			ph.EndPullRound()
			state.BroadcastSync()
		} else {
			koBody := func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				if state.Read(gid) != misIn {
					return
				}
				lo, hi := local.EdgeRange(n)
				for e := lo; e < hi; e++ {
					dgid := h.HP.GlobalID(local.Dst(e))
					if dgid != gid && state.Read(dgid) == misUndecided {
						state.Reduce(tid, dgid, misOut)
					}
				}
			}
			h.TimeCompute(func() {
				if k == roundAsync {
					// Knockouts write neighbors' state while peers read it, so
					// both sides go through the CAS handle. No re-enqueue:
					// knocked-out vertices trigger no further knockouts.
					sh := pol.ah
					d := h.AsyncDrain(fr, misOpts, func(tid int, n graph.NodeID, _ *runtime.AsyncCtx) {
						gid := h.HP.GlobalID(n)
						if st, ok := sh.Load(gid); !ok || st != misIn {
							return
						}
						lo, hi := local.EdgeRange(n)
						for e := lo; e < hi; e++ {
							dgid := h.HP.GlobalID(local.Dst(e))
							if dgid == gid {
								continue
							}
							if st, ok := sh.Load(dgid); ok && st == misUndecided {
								sh.ReduceAsync(tid, dgid, misOut)
							}
						}
					})
					drain.Accumulate(d)
				} else if fr != nil {
					h.ParForActive(fr, koBody)
				} else {
					h.ParForNodes(koBody)
				}
			})
			state.ReduceSync()
			state.BroadcastSync()
		}
		pol.observe(k, fr, drain)

		if cfg.requestActive() {
			requestLocalProxies(h, state)
		}
		if fr != nil {
			// Carry still-undecided proxies into the next round's frontier
			// and count the undecided masters from it.
			h.ParForActive(fr, func(_ int, n graph.NodeID) {
				if state.Read(h.HP.GlobalID(n)) == misUndecided {
					fr.Activate(int(n))
				}
			})
			fr.Advance()
			remaining.Set(int64(fr.CountRange(0, h.HP.NumMasters)))
		} else {
			remaining.Set(0)
			h.ParForMasters(func(_ int, n graph.NodeID) {
				if state.Read(h.HP.GlobalID(n)) == misUndecided {
					remaining.Reduce(1)
				}
			})
		}
		remaining.Sync(h.EP)
		undecided = remaining.Read()
		if undecided == 0 || stats.Rounds >= cfg.maxRounds() {
			break
		}
	}
	state.UnpinMirrors()
	prio.UnpinMirrors()

	var size runtime.CountReducer
	lo, hi := h.HP.MasterRangeGlobal()
	for g := lo; g < hi; g++ {
		state.Request(g)
	}
	state.RequestSync()
	for g := lo; g < hi; g++ {
		if state.Read(g) == misIn {
			out[h.HP.OriginalID(g)] = true
			size.Reduce(1)
		}
	}
	size.Sync(h.EP)
	stats.Size = size.Read()
	cfg.recordStats(degree)
	cfg.recordStats(prio)
	cfg.recordStats(state)
	return stats
}
