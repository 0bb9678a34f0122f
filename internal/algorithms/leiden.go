package algorithms

import (
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
// subcommunities (SPMD). lvl is the level's constants, shared with the
// local-moving phase (twoM > 0). On return, this host's master range of
// assignSub holds subcommunity labels, which the driver contracts on
// (community labels in assignComm are what gets reported).
func leidenRefine(h *runtime.Host, cfg Config, opts CDOptions, lvl *cdLevel,
	assignComm, assignSub []graph.NodeID) {
	local, twoM, kdeg := h.HP.Local, lvl.twoM, lvl.kdeg
	lo, hi := h.HP.MasterRangeGlobal()

	// Map 1: community labels from the local-moving phase, republished as
	// a property map so mirrors are readable.
	cmap := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	for g := lo; g < hi; g++ {
		cmap.Set(g, assignComm[g])
	}
	cmap.InitSync()
	cmap.PinMirrors()
	// The seed reduce below reads every master's community; without GAR a
	// master's value is only readable once requested.
	h.RequestLocal(cfg.reads(cmap)...)
	// cmap, and sub below, stay pinned through refinement: every adjacent
	// read indexes a local proxy by its host-local ID (DESIGN.md §18).
	cv := npm.Local(cmap)

	// Map 2: community totals, keyed by community representative.
	ctot := cfg.newFloatMap(h, npm.SumFloat64())
	h.ParForMasters(func(_ int, n graph.NodeID) { ctot.Set(h.HP.GlobalID(n), 0) })
	ctot.InitSync()
	h.TimeCompute(func() {
		h.ParForMasters(func(tid int, n graph.NodeID) {
			if k := kdeg[n]; k != 0 {
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

	var moved runtime.CountReducer
	subs := syncs(sub)
	// Refinement runs at most four rounds, ending early once a round
	// merges nothing.
	(&runtime.Loop{Host: h, MaxRounds: 4, Phases: []runtime.Phase{
		{Reads: cfg.reads(cmap, sub), Before: func() {
			h.ParForMasters(func(_ int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				subtot.Set(gid, 0)
				subsize.Set(gid, 0)
			})
			subtot.InitSync()
			subsize.InitSync()
		}, Visit: runtime.Masters, Body: func(tid int, n graph.NodeID) {
			s := sv.Value(n)
			subtot.Reduce(tid, s, kdeg[n])
			subsize.Reduce(tid, s, 1)
		}, Reduce: syncs(subtot, subsize)},
		// Request phase: totals of own community, own subcommunity, and
		// neighbor subcommunities (dynamically computed IDs).
		{Visit: runtime.Masters, Body: func(_ int, n graph.NodeID) {
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
		}, Request: syncs(ctot, subtot, subsize)},
		// Merge phase: a node still alone in its subcommunity and
		// well-connected to its community joins the best neighbor
		// subcommunity within its community.
		{Visit: runtime.Masters, Body: func(tid int, n graph.NodeID) {
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
			links := lvl.accs[tid]
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
		}, Reduce: subs, Broadcast: subs},
	}, Done: func() bool {
		moved.Sync(h.EP)
		n := moved.Read()
		moved.Set(0)
		return n == 0
	}}).Run()

	h.RequestLocal(cfg.reads(sub)...)
	for g := lo; g < hi; g++ {
		assignSub[g] = sub.Read(g)
	}
	sub.UnpinMirrors()
	cmap.UnpinMirrors()
}
