// Package phaseorder exercises the §9 phase-discipline analyzer against
// the real npm/runtime APIs: un-synced Reduce at Advance, and per-node
// Activate from driver code.
package phaseorder

import (
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// advanceWithoutSync is the basic misordering: the thread-local deltas
// are still buffered when the frontier flips.
func advanceWithoutSync(m npm.Map[uint32], fr *runtime.Frontier, n graph.NodeID) {
	m.Reduce(0, n, 1)
	fr.Advance() // want `Frontier\.Advance with an un-synced Reduce on m`
}

// advanceAfterDispatchedReduce hides the Reduce inside a dispatched
// operator body named by a local, the usual algorithm shape.
func advanceAfterDispatchedReduce(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier) {
	body := func(tid int, src graph.NodeID) {
		m.Reduce(tid, src, 1)
	}
	h.TimeCompute(func() {
		h.ParForActive(fr, body)
	})
	fr.Advance() // want `Frontier\.Advance with an un-synced Reduce on m`
}

// fullRound is the sanctioned superstep: compute, sync, broadcast,
// advance.
func fullRound(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier) {
	h.TimeCompute(func() {
		h.ParForActive(fr, func(tid int, src graph.NodeID) {
			m.Reduce(tid, src, 1)
		})
	})
	m.ReduceSync()
	m.BroadcastSync()
	fr.Advance()
}

// seedRound: bulk activation before round zero has nothing to sync.
func seedRound(fr *runtime.Frontier) {
	fr.ActivateAll()
	fr.Advance()
}

// activateFromDriver: sequential per-node activation is a missed
// ParForActive.
func activateFromDriver(fr *runtime.Frontier, n graph.NodeID) {
	fr.Activate(int(n)) // want `Frontier\.Activate outside an operator closure`
}

// activateFromOperator is the sanctioned context, named or literal.
func activateFromOperator(h *runtime.Host, fr *runtime.Frontier) {
	body := func(tid int, src graph.NodeID) {
		fr.Activate(int(src))
	}
	h.ParForActive(fr, body)
	h.ParForNodes(func(tid int, src graph.NodeID) {
		fr.Activate(int(src))
	})
}

// A driver-side loop is still flagged even when a dispatch runs nearby:
// the activation is outside the operator body.
func activateBesideDispatch(h *runtime.Host, fr *runtime.Frontier, ids []int) {
	h.ParForActive(fr, func(tid int, src graph.NodeID) {})
	for _, i := range ids {
		fr.Activate(i) // want `Frontier\.Activate outside an operator closure`
	}
}

// branchyLoop is the real label-round shape: whichever branch runs,
// every pending Reduce is synced before the round's Advance, including
// across the loop back-edge.
func branchyLoop(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier, dense bool) {
	m.PinMirrors()
	for i := 0; i < 4; i++ {
		if dense {
			h.ParForNodes(func(tid int, src graph.NodeID) {
				m.Reduce(tid, src, 1)
			})
			m.ReduceSync()
		} else {
			h.ParForActive(fr, func(tid int, src graph.NodeID) {
				m.Reduce(tid, src, 1)
			})
			m.ReduceSync()
		}
		m.BroadcastSync()
		fr.Advance()
	}
}

// decoder owns a frontier (it has SetFrontier): the decode side may
// activate nodes as remote deltas arrive.
type decoder struct{ fr *runtime.Frontier }

func (d *decoder) SetFrontier(f *runtime.Frontier) { d.fr = f }

func (d *decoder) decode(ids []int) {
	for _, i := range ids {
		d.fr.Activate(i)
	}
}

// viewReduceWithoutSync: a local view's Reduce buffers on its map, so the
// pending reduce is the map's — and only the map's ReduceSync clears it.
func viewReduceWithoutSync(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier) {
	local, lv := h.HP.Local, npm.Local(m)
	h.ParForActive(fr, func(tid int, src graph.NodeID) {
		lo, hi := local.EdgeRange(src)
		for e := lo; e < hi; e++ {
			lv.Reduce(tid, local.Dst(e), 1)
		}
	})
	fr.Advance() // want `Frontier\.Advance with an un-synced Reduce on m`
}

// viewRound is the sanctioned superstep through a view.
func viewRound(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier) {
	lv := npm.Local(m)
	h.ParForActive(fr, func(tid int, src graph.NodeID) {
		if lv.Value(src) > 0 {
			lv.Reduce(tid, src, 0)
		}
	})
	m.ReduceSync()
	m.BroadcastSync()
	fr.Advance()
}

// activateWordOwnedFromDriver: the single-writer word activation is held
// to the same contexts as Activate.
func activateWordOwnedFromDriver(fr *runtime.Frontier, n graph.NodeID) {
	fr.ActivateWordOwned(int(n)/64, 1<<(n%64)) // want `Frontier\.ActivateWordOwned outside an operator closure`
}

// activateWordOwnedFromOperator: a dispatched body, or a frontier-owning
// decoder, may use it.
func activateWordOwnedFromOperator(h *runtime.Host, fr *runtime.Frontier) {
	h.ParForNodes(func(tid int, src graph.NodeID) {
		fr.ActivateWordOwned(int(src)/64, 1<<(src%64))
	})
}

func (d *decoder) combine(words []uint64) {
	for w, mask := range words {
		d.fr.ActivateWordOwned(w, mask)
	}
}
