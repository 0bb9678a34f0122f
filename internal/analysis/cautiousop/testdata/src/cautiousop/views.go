package cautiousop

import (
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// A local view is its map: Value reads the map, so a Value after a Reduce
// to the map is the non-cautious read (Louvain's move phase, DESIGN.md §7
// audit (b), in its host-local form).
func viewValueAfterMapReduce(h *runtime.Host, cm npm.Map[graph.NodeID], stable []uint8) {
	cmv := npm.Local(cm)
	h.ParForMasters(func(tid int, n graph.NodeID) {
		a := cmv.Value(n)
		cm.Reduce(tid, h.HP.GlobalID(n), a+1)
		if cmv.Value(n) != a { // want `Read of "cm" follows a Reduce to it`
			stable[n] = 0
		}
	})
}

// A view's Reduce is a Reduce to its map, seen by a later map Read.
func mapReadAfterViewReduce(h *runtime.Host, m npm.Map[uint32]) {
	local, lv := h.HP.Local, npm.Local(m)
	h.ParForNodes(func(tid int, n graph.NodeID) {
		lo, hi := local.EdgeRange(n)
		for e := lo; e < hi; e++ {
			lv.Reduce(tid, local.Dst(e), 1)
		}
		_ = m.Read(h.HP.GlobalID(n)) // want `Read of "m" follows a Reduce`
	})
}

// Reading through the view before reducing is cautious.
func viewCautious(h *runtime.Host, m npm.Map[uint32]) {
	lv := npm.Local(m)
	h.ParForNodes(func(tid int, n graph.NodeID) {
		if v := lv.Value(n); v > 0 {
			lv.Reduce(tid, n, v-1)
		}
	})
}

// Views of distinct maps do not interfere.
func distinctViews(h *runtime.Host, a, b npm.Map[uint32]) {
	av, bv := npm.Local(a), npm.Local(b)
	h.ParForNodes(func(tid int, n graph.NodeID) {
		av.Reduce(tid, n, 1)
		_ = bv.Value(n)
	})
}
