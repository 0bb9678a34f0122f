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
// of its node ID (graph.MISPriority, the rule every MIS here shares); each
// round a node joins the set when its priority beats every undecided
// neighbor's, and neighbors of new members drop out. The result is the
// greedy MIS in priority order, so it does not depend on the partition.
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
	// Converged reports that the run stopped because no master was left
	// undecided, not because Config.MaxRounds cut it off: only then is
	// the set maximal.
	Converged bool
}

// MIS computes a maximal independent set (SPMD). out[n] is set true for
// members, filled for this host's master range.
func MIS(h *runtime.Host, cfg Config, out []bool) MISStats {
	local := h.HP.Local

	// Phase 1: global degrees (local degrees are partial under vertex
	// cuts), then static priorities (graph.MISPriority): lower score =
	// higher priority; low-degree nodes win, ties broken by a hash of the
	// node ID, so scores are distinct.
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
	h.RequestLocal(cfg.reads(degree)...)
	nGlobal := uint64(h.HP.NumGlobalNodes())
	h.ParForMasters(func(_ int, n graph.NodeID) {
		gid := h.HP.GlobalID(n)
		// Exact in the float64 map while degree·(n+1)+n < 2^53.
		p := graph.MISPriority(uint64(degree.Read(gid)), uint64(gid), nGlobal)
		prio.Set(gid, float64(p))
	})
	prio.InitSync()
	prio.PinMirrors()
	// Nothing reads degree again: recording its counters here leaves it
	// garbage for the rounds, which would otherwise keep it live (about
	// 1 MB on the road workload's 256² grid at 2 hosts).
	cfg.recordStats(degree)

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
	if !cfg.dense {
		fr = runtime.NewFrontier(h.HP.NumLocal())
		fr.ActivateAll()
	}

	// Minimum priority among each node's undecided neighbors, accumulated
	// from every edge location. One map serves every round: each round
	// re-Sets the masters to +Inf, which every variant overwrites in place,
	// so the master vector and reduce buffers are reused instead of
	// rebuilt.
	minNbr := cfg.newFloatMap(h, npm.MinFloat64())
	// Host-local views (DESIGN.md §14): every per-node and per-edge body
	// below addresses the proxies it iterates by local ID.
	sv, pv, mv := npm.Local(state), npm.Local(prio), npm.Local(minNbr)
	nm := h.HP.NumMasters

	var remaining runtime.CountReducer
	resetMin := func(_ int, n graph.NodeID) {
		minNbr.Set(h.HP.GlobalID(n), math.Inf(1))
	}
	acc := func(tid int, n graph.NodeID) {
		if sv.Value(n) != misUndecided {
			return
		}
		if m, ok := minUndecided(local.Neighbors(n), n, sv, pv); ok {
			mv.Reduce(tid, n, m)
		}
	}
	// Decision: an undecided master with priority below all undecided
	// neighbors joins the set.
	decide := func(tid int, n graph.NodeID) {
		if sv.Value(n) != misUndecided {
			return
		}
		if pv.Value(n) < mv.Value(n) {
			sv.Reduce(tid, n, misIn)
		}
	}
	// Knock-out: undecided neighbors of new members drop out. The
	// frontier holds last round's undecided proxies, so a misIn state
	// there means the node joined *this* round — exactly the members
	// whose neighbors still need knocking out.
	knockOut := func(tid int, n graph.NodeID) {
		if sv.Value(n) != misIn {
			return
		}
		lo, hi := local.EdgeRange(n)
		for e := lo; e < hi; e++ {
			if d := local.Dst(e); d != n && sv.Value(d) == misUndecided {
				sv.Reduce(tid, d, misOut)
			}
		}
	}
	// Carry still-undecided proxies into the next round's frontier, or
	// without one count the undecided masters.
	carry := func(_ int, n graph.NodeID) {
		if sv.Value(n) == misUndecided {
			if fr != nil {
				fr.Activate(int(n))
			} else {
				remaining.Reduce(1)
			}
		}
	}
	carryVisit := runtime.Active
	if fr == nil {
		carryVisit = runtime.Masters
	}
	st, readState := syncs(state), cfg.reads(state)
	var stats MISStats
	stats.Rounds, stats.Converged = (&runtime.Loop{Host: h, Frontier: fr, MaxRounds: cfg.maxRounds(),
		Phases: []runtime.Phase{
			{Before: func() {
				remaining.Set(0)
				h.ParForMasters(resetMin)
				minNbr.InitSync()
			}},
			{Reads: cfg.reads(state, prio), Body: acc, Reduce: syncs(minNbr)},
			{Reads: cfg.reads(state, minNbr, prio), Visit: runtime.ActiveMasters, Body: decide,
				Reduce: st, Broadcast: st},
			{Reads: readState, Body: knockOut, Reduce: st, Broadcast: st},
			{Reads: readState, Visit: carryVisit, Body: carry},
		},
		Done: func() bool {
			if fr != nil {
				remaining.Set(int64(fr.CountRange(0, nm)))
			}
			remaining.Sync(h.EP)
			return remaining.Read() == 0
		}}).Run()
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
			out[g] = true
			size.Reduce(1)
		}
	}
	size.Sync(h.EP)
	stats.Size = size.Read()
	cfg.recordStats(prio)
	cfg.recordStats(state)
	return stats
}

// minUndecided folds the priorities of n's undecided neighbors (self loops
// excluded) into their minimum; ok is false when none is undecided. Every
// one of those priorities reduces onto n, so the accumulate body folds
// them here and reduces once per node instead of once per edge (min is
// associative: the combined value is the same).
func minUndecided(nbrs []graph.NodeID, n graph.NodeID, state *npm.LocalView[graph.NodeID], prio *npm.LocalView[float64]) (m float64, ok bool) {
	m = math.Inf(1)
	for _, d := range nbrs {
		if d != n && state.Value(d) == misUndecided {
			m, ok = min(m, prio.Value(d)), true
		}
	}
	return m, ok
}
