// Package phaseorder exercises the §9 phase-discipline analyzer against
// the real npm/runtime/comm APIs: un-synced Reduce at Advance, staged
// sends at Recv or function exit, and per-node Activate from driver
// code.
package phaseorder

import (
	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/par"
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

// recvWithStagedSends: the staged bytes are not on the wire, so waiting
// for the peer's reply deadlocks the exchange.
func recvWithStagedSends(bs comm.BufferedSender, ep comm.Endpoint) []byte {
	bs.SendBuffered(1, comm.TagApp, []byte{1})
	in := ep.Recv(1, comm.TagApp) // want `Recv while sends staged on bs are unflushed`
	bs.FlushSends()
	return in
}

// flushedRecv is the correct order.
func flushedRecv(bs comm.BufferedSender, ep comm.Endpoint) []byte {
	bs.SendBuffered(1, comm.TagApp, []byte{1})
	bs.FlushSends()
	return ep.Recv(1, comm.TagApp)
}

// leakOnOnePath flushes on only one branch; the may-analysis catches the
// fall-through path at the function exit.
func leakOnOnePath(bs comm.BufferedSender, eager bool) {
	bs.SendBuffered(1, comm.TagApp, []byte{1})
	if eager {
		bs.FlushSends()
	}
} // want `staged sends on bs are never flushed on this path`

// exchangeFlushes: the exchange helpers flush internally.
func exchangeFlushes(bs comm.BufferedSender, ep comm.Endpoint, out [][]byte) {
	bs.SendBuffered(0, comm.TagApp, []byte{1})
	comm.ExchangeInto(ep, comm.TagApp, out, out)
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

// Async drain bodies are dispatched compute: inline literals handed to
// AsyncDrain/AsyncDrainBits, and — because only the drain scheduler can
// construct an *AsyncCtx — any closure or function taking one, however
// it reaches the drain (the operator-body-factory idiom).
func activateFromDrainBody(h *runtime.Host, fr *runtime.Frontier, b *par.Bitset) {
	h.AsyncDrain(fr, runtime.AsyncOpts{}, func(tid int, src graph.NodeID, cx *runtime.AsyncCtx) {
		fr.Activate(int(src))
	})
	h.AsyncDrainBits(b, runtime.AsyncOpts{}, func(tid int, src graph.NodeID, cx *runtime.AsyncCtx) {
		fr.Activate(int(src))
	})
}

func drainBodyFactory(fr *runtime.Frontier) func(tid int, src graph.NodeID, cx *runtime.AsyncCtx) {
	return func(tid int, src graph.NodeID, cx *runtime.AsyncCtx) {
		fr.Activate(int(src))
	}
}

func namedDrainBody(fr *runtime.Frontier, tid int, src graph.NodeID, cx *runtime.AsyncCtx) {
	fr.Activate(int(src))
}

// A driver-side loop is still flagged even when a drain runs nearby: the
// activation is outside the operator body.
func activateBesideDrain(h *runtime.Host, fr *runtime.Frontier, ids []int) {
	h.AsyncDrain(fr, runtime.AsyncOpts{}, func(tid int, src graph.NodeID, cx *runtime.AsyncCtx) {})
	for _, i := range ids {
		fr.Activate(i) // want `Frontier\.Activate outside an operator closure`
	}
}

// pullAfterReduceSync is the stale-mirror misordering: the reduce moved
// the masters, the mirrors still hold the pre-round values, and the pull
// reads them in place of remote requests.
func pullAfterReduceSync(m npm.Map[uint32], n graph.NodeID) {
	m.PinMirrors()
	m.Reduce(0, n, 1)
	m.ReduceSync()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	ph.BeginPullRound() // want `pull round on m with stale mirrors`
	ph.EndPullRound()
}

// pullAfterBroadcast is the sanctioned order: the broadcast refreshed the
// mirrors after the reduce, so the round may pull.
func pullAfterBroadcast(m npm.Map[uint32], n graph.NodeID) {
	m.PinMirrors()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	m.Reduce(0, n, 1)
	m.ReduceSync()
	m.BroadcastSync()
	ph.BeginPullRound()
	ph.EndPullRound()
	m.BroadcastSync()
}

// doublePullRound: the first pull round itself moves masters ahead of the
// mirrors, so a second round needs a broadcast in between.
func doublePullRound(m npm.Map[uint32]) {
	m.PinMirrors()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	ph.BeginPullRound()
	ph.EndPullRound()
	ph.BeginPullRound() // want `pull round on m with stale mirrors`
	ph.EndPullRound()
	m.BroadcastSync()
}

// pullAfterInitSync: initialization publishes masters without refreshing
// pinned mirrors, so it stales them like a reduce does.
func pullAfterInitSync(m npm.Map[uint32], n graph.NodeID) {
	m.PinMirrors()
	m.Set(n, 1)
	m.InitSync()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	ph.BeginPullRound() // want `pull round on m with stale mirrors`
	ph.EndPullRound()
}

// pullUnpinnedScratch: a masters-only scratch map (the MIS minNbr idiom)
// is never pinned, so there are no mirrors to be stale and the rule stays
// quiet — matching the runtime, which only panics on pinned maps.
func pullUnpinnedScratch(m npm.Map[uint32], n graph.NodeID) {
	m.Set(n, 1)
	m.InitSync()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	ph.BeginPullRound()
	ph.EndPullRound()
}

// directionLoop is the real label-round shape: whichever branch runs,
// the round ends with a broadcast, so every BeginPullRound — including
// across the loop back-edge — sees fresh mirrors.
func directionLoop(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier, pull bool) {
	m.PinMirrors()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	for i := 0; i < 4; i++ {
		if pull {
			ph.BeginPullRound()
			ph.EndPullRound()
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

// pullSkippedBroadcastInLoop leaves the broadcast on only one branch: the
// may-analysis carries the pull branch's staleness around the back-edge
// to the next iteration's BeginPullRound.
func pullSkippedBroadcastInLoop(h *runtime.Host, m npm.Map[uint32], fr *runtime.Frontier, pull bool) {
	m.PinMirrors()
	ph, ok := npm.Pull(m)
	if !ok {
		return
	}
	for i := 0; i < 4; i++ {
		if pull {
			ph.BeginPullRound() // want `pull round on m with stale mirrors`
			ph.EndPullRound()
		} else {
			h.ParForActive(fr, func(tid int, src graph.NodeID) {
				m.Reduce(tid, src, 1)
			})
			m.ReduceSync()
			m.BroadcastSync()
		}
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
