package algorithms

import (
	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// Deterministic Leiden community detection (Traag et al.). Leiden improves
// on Louvain by refining each community into well-connected subcommunities
// before contraction, so badly-connected communities are split rather than
// frozen. Ours is structured like the paper's distributed implementation:
// the local-moving phase is shared with Louvain, and the refinement phase
// uses additional node-property maps — community, community totals,
// subcommunity, subcommunity totals, and subcommunity sizes (the paper's
// "five node property maps") — whose reductions target representative
// nodes (trans-vertex).
//
// The paper reports LD is on average 7x slower than LV (more edge
// iterations and more maps per refinement round) while improving community
// quality; the same relationship holds here.

// Leiden runs multi-level Leiden. See Louvain for driver semantics.
func Leiden(g *graph.Graph, ccfg runtime.Config, acfg Config, opts CDOptions) (CDResult, error) {
	return multilevel(g, ccfg, acfg, opts.withDefaults(), true)
}

// leidenRefine splits the communities in assignComm into well-connected
// subcommunities (SPMD). accs holds one link accumulator per worker
// thread, shared with the local-moving phase. On return, this host's
// master range of assignSub holds subcommunity labels, which the driver
// contracts on (community labels in assignComm are what gets reported).
func leidenRefine(h *runtime.Host, cfg Config, opts CDOptions, accs []*graph.Accumulator,
	assignComm, assignSub []graph.NodeID) {
	local := h.HP.Local
	lo, hi := h.HP.MasterRangeGlobal()

	localWeight := 0.0
	for n := 0; n < local.NumNodes(); n++ {
		elo, ehi := local.EdgeRange(graph.NodeID(n))
		for e := elo; e < ehi; e++ {
			localWeight += local.Weight(e)
		}
	}
	twoM := comm.AllReduceFloat64(h.EP, localWeight)
	if twoM == 0 {
		for g := lo; g < hi; g++ {
			assignSub[g] = g
		}
		return
	}

	// Map 1: community labels from the local-moving phase, republished as
	// a property map so mirrors are readable.
	cmap := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	for g := lo; g < hi; g++ {
		cmap.Set(g, assignComm[g])
	}
	cmap.InitSync()
	cmap.PinMirrors()
	if cfg.requestActive() {
		// The seed reduce below reads every master's community; without
		// GAR a master's value is only readable once requested.
		requestLocalProxies(h, cmap)
	}
	// cmap, and sub below, stay pinned through refinement: every adjacent
	// read indexes a local proxy by its host-local ID (DESIGN.md §18).
	cv := npm.Local(cmap)

	// Each master's weighted degree, a level constant computed once.
	kdeg := make([]float64, h.HP.NumMasters)

	// Map 2: community totals, keyed by community representative.
	ctot := cfg.newFloatMap(h, npm.SumFloat64())
	h.ParForMasters(func(_ int, n graph.NodeID) { ctot.Set(h.HP.GlobalID(n), 0) })
	ctot.InitSync()
	h.TimeCompute(func() {
		h.ParForMasters(func(tid int, n graph.NodeID) {
			k := weightedDegree(local, n)
			kdeg[n] = k
			if k != 0 {
				ctot.Reduce(tid, cv.Value(n), k)
			}
		})
	})
	ctot.ReduceSync()

	// Map 3: subcommunity labels, initially singleton.
	sub := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	initOwn(h, sub)
	sub.PinMirrors()
	sv := npm.Local(sub)

	// Map 4: subcommunity totals. Map 5: subcommunity sizes. Both are
	// keyed by subcommunity representative and re-Set to 0 every round,
	// so one pair of maps serves the whole refinement.
	subtot := cfg.newFloatMap(h, npm.SumFloat64())
	subsize := cfg.newFloatMap(h, npm.SumFloat64())

	const refineRounds = 4
	for round := 0; round < refineRounds; round++ {
		if cfg.requestActive() {
			requestLocalProxies(h, cmap)
			requestLocalProxies(h, sub)
		}

		h.ParForMasters(func(_ int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			subtot.Set(gid, 0)
			subsize.Set(gid, 0)
		})
		subtot.InitSync()
		subsize.InitSync()
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				s := sv.Value(n)
				subtot.Reduce(tid, s, kdeg[n])
				subsize.Reduce(tid, s, 1)
			})
		})
		subtot.ReduceSync()
		subsize.ReduceSync()

		// Request phase: totals of own community, own subcommunity, and
		// neighbor subcommunities (dynamically computed IDs).
		h.TimeCompute(func() {
			h.ParForMasters(func(_ int, n graph.NodeID) {
				c := cv.Value(n)
				ctot.Request(c)
				s := sv.Value(n)
				subtot.Request(s)
				subsize.Request(s)
				elo, ehi := local.EdgeRange(n)
				for e := elo; e < ehi; e++ {
					dst := local.Dst(e)
					if cv.Value(dst) == c {
						subtot.Request(sv.Value(dst))
					}
				}
			})
		})
		ctot.RequestSync()
		subtot.RequestSync()
		subsize.RequestSync()

		// Merge phase: a node still alone in its subcommunity and
		// well-connected to its community joins the best neighbor
		// subcommunity within its community.
		var moved runtime.CountReducer
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				s := sv.Value(n)
				if s != gid || subsize.Read(s) != 1 {
					return // only singleton subcommunities merge
				}
				c := cv.Value(n)
				kn := kdeg[n]
				if kn == 0 {
					return
				}
				// Connectivity gate: the node must be sufficiently
				// linked to the rest of its community (Traag et al.'s
				// gamma-scaled well-connectedness condition).
				intoC := 0.0
				links := accs[tid]
				defer links.Reset()
				elo, ehi := local.EdgeRange(n)
				for e := elo; e < ehi; e++ {
					dst := local.Dst(e)
					if dst == n || cv.Value(dst) != c {
						continue
					}
					intoC += local.Weight(e)
					links.Add(sv.Value(dst), local.Weight(e))
				}
				if intoC < opts.Gamma*kn*(ctot.Read(c)-kn)/twoM {
					return // badly connected: stays singleton
				}
				best, bestGain := s, 0.0
				for i, t := range links.Keys() {
					if t == s {
						continue
					}
					gain := links.Vals()[i] - subtot.Read(t)*kn/twoM
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && gain > 0 && t < best) {
						best, bestGain = t, gain
					}
				}
				if best != s {
					sub.Reduce(tid, gid, best)
					moved.Reduce(1)
				}
			})
		})
		sub.ReduceSync()
		sub.BroadcastSync()
		moved.Sync(h.EP)
		if moved.Read() == 0 {
			break
		}
	}

	if cfg.requestActive() {
		requestLocalProxies(h, sub)
	}
	for g := lo; g < hi; g++ {
		assignSub[g] = sub.Read(g)
	}
	sub.UnpinMirrors()
	cmap.UnpinMirrors()
}

// weightedDegree sums the weights of n's local out-edges. Under the OEC
// partitioning LD runs with, masters hold their full adjacency, so this is
// the global weighted degree.
func weightedDegree(local *graph.Graph, n graph.NodeID) float64 {
	sum := 0.0
	lo, hi := local.EdgeRange(n)
	for e := lo; e < hi; e++ {
		sum += local.Weight(e)
	}
	return sum
}
