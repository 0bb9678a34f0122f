package algorithms

import (
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

// engine resolves Config.Mode into per-round execution decisions for one
// algorithm phase: which rounds drain asynchronously (and with what
// priority), and — under ExecAdaptive — feeding each round's telemetry
// back to the runtime's policy controller. A nil *engine means the phase
// runs pure BSP; every call site tolerates nil, so the fallback is free.
type engine struct {
	h      *runtime.Host
	ah     *npm.AsyncNodeHandle
	static runtime.ExecMode  // fixed decision when ad is nil
	ad     *runtime.Adaptive // per-round controller (ExecAdaptive)
	half   graph.NodeID      // label-magnitude priority split point
	// pend is the shortcut phase's unresolved-remote set (see ccShortcut),
	// kept here so repeated phases reuse one allocation. Sized like the
	// frontier so drains over it share the scheduler state.
	pend                     *par.Bitset
	prevApplied, prevRetries int64
}

// pendSet returns the engine's cleared pending-vertex scratch set.
func (e *engine) pendSet() *par.Bitset {
	if e.pend == nil {
		e.pend = par.NewBitset(e.h.HP.NumLocal())
	} else {
		e.pend.Clear()
	}
	return e.pend
}

// newEngine builds the engine for a phase over map m, or nil when the
// phase must run BSP: mode is BSP, there is no frontier to drain, or the
// map cannot take in-place CAS applies (non-Full variant, non-idempotent
// operator).
func (c Config) newEngine(h *runtime.Host, fr *runtime.Frontier, m npm.Map[graph.NodeID]) *engine {
	if (c.Mode == "" || c.Mode == ExecBSP) || fr == nil {
		return nil
	}
	ah, ok := npm.AsyncNode(m)
	if !ok {
		return nil
	}
	e := &engine{h: h, ah: ah, half: graph.NodeID(h.HP.NumGlobalNodes() / 2)}
	if c.Mode == ExecAdaptive {
		e.ad = runtime.NewAdaptive(h)
	} else {
		e.static = runtime.ModeAsync
	}
	return e
}

// roundMode decides the coming round's execution mode given the frontier
// count entering it.
func (e *engine) roundMode(active int) runtime.ExecMode {
	if e == nil {
		return runtime.ModeBSP
	}
	if e.ad != nil {
		return e.ad.NextMode(active)
	}
	return e.static
}

// observe feeds one completed round's telemetry to the adaptive
// controller (no-op for static modes).
func (e *engine) observe(mode runtime.ExecMode, active, size int, drain runtime.DrainStats) {
	if e == nil || e.ad == nil {
		return
	}
	applied, retries := e.ah.CASStats()
	e.ad.Observe(runtime.RoundTelemetry{
		Active:       active,
		FrontierSize: size,
		Mode:         mode,
		Drain:        drain,
		CASApplied:   applied - e.prevApplied,
		CASRetries:   retries - e.prevRetries,
	})
	e.prevApplied, e.prevRetries = applied, retries
}

// labelPriority is the CC drain priority: vertices whose current label is
// already in the low half of the ID space run first — low labels are the
// ones that spread (the component minimum is the lowest ID), so
// propagating them early shortens every chain behind them. Reads go
// through the handle because the scheduler calls this concurrently with
// CAS applies.
func (e *engine) labelPriority(n graph.NodeID) int {
	if v, ok := e.ah.Load(e.h.HP.GlobalID(n)); ok && v < e.half {
		return 0
	}
	return 1
}

// ccAsyncOpts is the drain configuration for the CC phases.
func (e *engine) ccAsyncOpts() runtime.AsyncOpts {
	return runtime.AsyncOpts{Levels: 2, Priority: e.labelPriority}
}

// degreePriority returns a MIS drain priority: high-degree vertices first
// (they knock out the most neighbors). deg is captured once per phase —
// static priorities need no atomic reads.
func degreePriority(local *graph.Graph, avg int) func(graph.NodeID) int {
	return func(n graph.NodeID) int {
		if local.Degree(n) >= avg {
			return 0
		}
		return 1
	}
}
