package algorithms

import (
	"math"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// Boruvka minimum spanning forest (Table 2: trans-vertex only). Each round
// every component selects its minimum-weight outgoing edge with a
// min-reduction onto the component root's property, roots merge pairwise,
// and pointer jumping collapses the resulting parent chains. Two
// node-property maps are used, as in the paper: the parent map and a
// per-round candidate-edge map keyed by component root.

// MinEdge is the candidate-edge property: an undirected edge in normalized
// (A < B) form with its weight. The zero value is not meaningful; use
// infEdge as the reduction identity.
type MinEdge struct {
	W    float64
	A, B graph.NodeID
}

func infEdge() MinEdge {
	return MinEdge{W: math.Inf(1), A: graph.InvalidNode, B: graph.InvalidNode}
}

// less orders edges by (weight, endpoints), a total order that makes the
// min-reduction deterministic and cycle-free (mutual minimum picks are
// always the identical edge).
func (e MinEdge) less(o MinEdge) bool {
	if e.W != o.W {
		return e.W < o.W
	}
	if e.A != o.A {
		return e.A < o.A
	}
	return e.B < o.B
}

// MinEdgeOp is the min reduction over candidate edges.
func MinEdgeOp() npm.ReduceOp[MinEdge] {
	return npm.ReduceOp[MinEdge]{
		Name: "min-edge",
		Combine: func(a, b MinEdge) MinEdge {
			if b.less(a) {
				return b
			}
			return a
		},
		Identity:    infEdge(),
		HasIdentity: true,
	}
}

// MinEdgeCodec serializes MinEdge values (16 bytes).
type MinEdgeCodec struct{}

// Append implements npm.Codec.
func (MinEdgeCodec) Append(b []byte, e MinEdge) []byte {
	b = comm.AppendFloat64(b, e.W)
	b = comm.AppendUint32(b, uint32(e.A))
	return comm.AppendUint32(b, uint32(e.B))
}

// Read implements npm.Codec.
func (MinEdgeCodec) Read(b []byte) (MinEdge, []byte) {
	var e MinEdge
	e.W, b = comm.ReadFloat64(b)
	var u uint32
	u, b = comm.ReadUint32(b)
	e.A = graph.NodeID(u)
	u, b = comm.ReadUint32(b)
	e.B = graph.NodeID(u)
	return e, b
}

// Size implements npm.Codec.
func (MinEdgeCodec) Size() int { return 16 }

// MSFStats reports the result of a Boruvka run.
type MSFStats struct {
	Rounds      int
	TotalWeight float64
	ForestEdges int64
	// Converged reports that the run stopped because a round merged no
	// component and every parent chain collapsed, not because
	// Config.MaxRounds cut it off: only then is the forest minimal and
	// spanning.
	Converged bool
}

// MSF computes a minimum spanning forest (SPMD). The input graph must be
// symmetric and weighted. comp (length = global node count) receives this
// host's master component labels; the forest weight is in the returned
// stats (identical on every host).
func MSF(h *runtime.Host, cfg Config, comp []graph.NodeID) MSFStats {
	// The parent map uses Overwrite, not min: each component root writes
	// only its own parent pointer when it attaches, so no union is ever
	// lost to a competing reduction (a min-reduce could overwrite one
	// union with another, counting an edge whose merge never happened).
	parent := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	initOwn(h, parent)

	var stats MSFStats
	var edges runtime.CountReducer
	var workDone runtime.BoolReducer

	// The forest weight is summed on one thread, in master order, round
	// after round, so its bits cannot follow thread interleaving as a
	// concurrent float add's would. taken[l] holds the weight master l
	// accounted this round, 0 if none. The sum starts at +0, so it is
	// never -0 and adding a 0 leaves it unchanged.
	taken := make([]float64, h.HP.NumMasters)
	weight := 0.0

	// frP drives the pointer-jumping phases via the parent map's change
	// activation. frProp is the proposer frontier, managed by the algorithm
	// itself (works on every backend): a proxy retires permanently once all
	// its local edges stay inside one component — components only merge, so
	// a retired proxy can never again propose a crossing edge.
	frP := cfg.newFrontier(h, parent)
	sc := cfg.newShortcut(h, parent, frP, nil)
	var frProp *runtime.Frontier
	if !cfg.dense {
		frProp = runtime.NewFrontier(h.HP.NumLocal())
		frProp.ActivateAll()
	}

	// Each root's cheapest crossing edge. One map serves every round: each
	// round re-Sets the masters to the identity before reducing.
	cand := npm.New(npm.Options[MinEdge]{
		Host: h, Op: MinEdgeOp(), Codec: MinEdgeCodec{},
		Variant: cfg.Variant, Store: cfg.Store,
	})

	// Host-local views (DESIGN.md §14): the edge scan and the master loops
	// address the proxies they iterate by local ID; only the arbitrary
	// nodes — roots and candidate endpoints — go through global IDs.
	local, pv, cv := h.HP.Local, npm.Local(parent), npm.Local(cand)

	resetCand := func(_ int, local graph.NodeID) {
		cand.Set(h.HP.GlobalID(local), infEdge())
	}
	// Candidate selection: every node proposes its cheapest edge that
	// leaves its component, reduced onto the component root (an arbitrary
	// node: trans-vertex).
	propose := func(tid int, n graph.NodeID) {
		rs := pv.Value(n)
		// Every crossing edge of n reduces onto the same root rs, so
		// the scan folds them — the lightest under the (weight,
		// endpoints) order stays in best — and reduces once. Min is
		// associative: the root's combined candidate is the same.
		best := infEdge()
		crossing := false
		lo, hi := local.EdgeRange(n)
		for e := lo; e < hi; e++ {
			w := local.Weight(e)
			if crossing && w > best.W {
				continue // cannot win: skip the parent read
			}
			d := local.Dst(e)
			if pv.Value(d) == rs {
				continue
			}
			crossing = true
			ga, gb := h.HP.GlobalID(n), h.HP.GlobalID(d)
			if edge := (MinEdge{W: w, A: min(ga, gb), B: max(ga, gb)}); edge.less(best) {
				best = edge
			}
		}
		if !crossing {
			return
		}
		cand.Reduce(tid, rs, best)
		if frProp != nil {
			frProp.Activate(int(n))
		}
	}
	// Request phase: roots need the parents of their candidate edge's
	// endpoints (arbitrary nodes).
	requestEnds := func(_ int, local graph.NodeID) {
		c := cv.Value(local)
		if !math.IsInf(c.W, 1) {
			parent.Request(c.A)
			parent.Request(c.B)
		}
	}
	// Request phase: roots need the other root's candidate to
	// de-duplicate mutually selected edges.
	requestOther := func(_ int, local graph.NodeID) {
		c := cv.Value(local)
		if math.IsInf(c.W, 1) {
			return
		}
		ra, rb := parent.Read(c.A), parent.Read(c.B)
		other := ra
		if ra == h.HP.GlobalID(local) {
			other = rb
		}
		cand.Request(other)
	}
	// Merge: every root attaches itself to the other endpoint's root and
	// accounts its candidate edge. Mutual picks are always the identical
	// edge (the total order on edges guarantees it); the smaller root of
	// a mutual pair stays put so the pointer graph is acyclic, and the
	// larger side accounts the edge.
	merge := func(tid int, local graph.NodeID) {
		c := cv.Value(local)
		if math.IsInf(c.W, 1) {
			return
		}
		og := h.HP.GlobalID(local)
		ra, rb := parent.Read(c.A), parent.Read(c.B)
		other := ra
		if ra == og {
			other = rb
		}
		if other == og {
			return // endpoints merged earlier in this round's view
		}
		if cand.Read(other) == c && og < other {
			return // smaller root of a mutual pair: stays the root
		}
		pv.Reduce(tid, local, other) // single writer: own pointer
		workDone.Reduce(true)
		taken[local] = c.W
		edges.Reduce(1)
	}

	var quiet, done bool
	stats.Rounds, done = (&runtime.Loop{Host: h, Frontier: frProp, MaxRounds: cfg.maxRounds(),
		Phases: []runtime.Phase{
			{Before: func() {
				// Collapse parent chains so parents are component roots,
				// then reset the candidates: masters back to the identity.
				_, quiet = sc.run(nil)
				h.ParForMasters(resetCand)
				cand.InitSync()
				parent.PinMirrors()
				workDone.Set(false)
			}},
			{Reads: cfg.reads(parent), Body: propose, Reduce: syncs(cand)},
			{Reads: cfg.reads(cand), Visit: runtime.Masters, Body: requestEnds, Request: syncs(parent)},
			{Visit: runtime.Masters, Body: requestOther, Request: syncs(cand)},
			{Visit: runtime.Masters, Body: merge, Reduce: syncs(parent)},
			{Before: func() {
				// Account the round's edges in master order.
				for l, w := range taken {
					weight += w
					taken[l] = 0
				}
				parent.UnpinMirrors()
			}},
		},
		Done: func() bool {
			workDone.Sync(h.EP)
			return !workDone.Read()
		}}).Run()
	stats.Converged = done && quiet

	// Final collapse so labels are roots, then collect.
	_, quiet = sc.run(nil)
	stats.Converged = stats.Converged && quiet
	edges.Sync(h.EP)
	stats.TotalWeight = comm.AllReduceFloat64(h.EP, weight)
	stats.ForestEdges = edges.Read()
	readAllMasters(h, parent, comp)
	cfg.recordStats(parent)
	cfg.recordStats(cand)
	return stats
}
