// Package phaseorder exercises the §9 activation rule against the real
// runtime APIs: per-node Activate belongs in operators or frontier-owning
// decoders, never in driver code.
package phaseorder

import (
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// activateFromDriver: sequential per-node activation is a missed
// operator.
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

// activateFromPhase: the round driver's phase bodies are operators,
// written in place or bound to a local name, and so is a closure handed
// to Loop.ParFor; a phase's Before hook is sequential driver code.
func activateFromPhase(h *runtime.Host, fr *runtime.Frontier, m runtime.SyncMap) {
	carry := func(tid int, n graph.NodeID) {
		fr.Activate(int(n))
	}
	loop := runtime.Loop{Host: h, Frontier: fr, Quiesce: m, Phases: []runtime.Phase{
		{Body: carry},
		{Body: func(tid int, n graph.NodeID) { fr.Activate(int(n)) }},
		{Before: func() {
			fr.Activate(0) // want `Frontier\.Activate outside an operator closure`
		}},
	}}
	loop.ParFor(runtime.Masters, func(tid int, n graph.NodeID) {
		fr.Activate(int(n))
	})
	loop.Run()
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
