package algorithms

import (
	"fmt"

	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

// Strategy selects how the pointer-jumping shortcut rounds of CC-SV and
// CC-SCLP execute (see Config.Strategy). Every round runs in one of two
// shapes:
//
//   - bsp: push along out-edges; reduces are buffered thread-locally and
//     applied at ReduceSync (DESIGN.md §8).
//   - async: push, with the compute phase drained by the priority
//     scheduler (runtime.AsyncDrain) and local targets CAS-applied in
//     place (§12). Only the pointer-jumping shortcut has an async round:
//     its path-halving chase collapses a whole local parent chain in one
//     drain. Label and MIS rounds have none: their drains never beat bsp
//     (DESIGN.md §16 (h)).
//
// The strategy is static: the shortcut's shape is settled once, when its
// policy is built, and every round of the phase runs in it.
type Strategy string

const (
	// StrategyBSP runs every round bsp. The zero value means the same.
	StrategyBSP Strategy = "bsp"
	// StrategyAsync drains every frontier-driven shortcut round; every
	// other round runs bsp.
	StrategyAsync Strategy = "async"
)

// roundKind is the shape one round ran in (see Strategy).
type roundKind uint8

const (
	roundBSP roundKind = iota
	roundAsync
)

func (k roundKind) String() string {
	if k == roundAsync {
		return "async"
	}
	return "bsp"
}

// policy is the async shape of one shortcut phase over one label map. A
// nil *policy runs every round bsp; shape tolerates nil.
//
// Legality is settled once, at construction, and a phase that cannot
// drain runs bsp: async needs a frontier to drain and in-place CAS
// applies (npm.AsyncNode: the Full variant). Both conditions are
// SPMD-identical configuration, so all hosts settle on the same shape
// without a collective and meet at the same syncs.
type policy struct {
	h  *runtime.Host
	ah *npm.AsyncNodeHandle

	half graph.NodeID // label-magnitude priority split point
	// pend is the shortcut drain's unresolved-remote set (see
	// shortcut), kept here so repeated phases reuse one
	// allocation. Sized like the frontier so drains over it share the
	// scheduler state.
	pend *par.Bitset
}

// checkStrategy panics on a Strategy value no phase knows, so a
// misspelled or deleted strategy fails loudly instead of running bsp.
// Every algorithm that reads the field calls it, whether or not it has a
// phase that drains.
func (c Config) checkStrategy() {
	switch c.Strategy {
	case "", StrategyBSP, StrategyAsync:
	default:
		panic(fmt.Sprintf("algorithms: unknown strategy %q", c.Strategy))
	}
}

// newPolicy builds the shortcut policy over map m with frontier fr (nil
// under dense execution), or nil when every round runs bsp.
func (c Config) newPolicy(h *runtime.Host, fr *runtime.Frontier, m npm.Map[graph.NodeID]) *policy {
	if c.Strategy != StrategyAsync || fr == nil {
		return nil
	}
	ah, ok := npm.AsyncNode(m)
	if !ok {
		return nil
	}
	return &policy{h: h, ah: ah, half: graph.NodeID(h.HP.NumGlobalNodes() / 2)}
}

// shape is the shape every round of the policy's phase runs in.
func (p *policy) shape() roundKind {
	if p == nil {
		return roundBSP
	}
	return roundAsync
}

// pendSet returns the policy's cleared pending-vertex scratch set.
func (p *policy) pendSet() *par.Bitset {
	if p.pend == nil {
		p.pend = par.NewBitset(p.h.HP.NumLocal())
	} else {
		p.pend.Clear()
	}
	return p.pend
}

// labelPriority is the CC drain priority: vertices whose current label is
// already in the low half of the ID space run first — low labels are the
// ones that spread (the component minimum is the lowest ID), so
// propagating them early shortens every chain behind them. Reads go
// through the handle because the scheduler calls this concurrently with
// CAS applies.
func (p *policy) labelPriority(n graph.NodeID) int {
	if v, ok := p.ah.Load(p.h.HP.GlobalID(n)); ok && v < p.half {
		return 0
	}
	return 1
}

// ccAsyncOpts is the drain configuration for the CC phases.
func (p *policy) ccAsyncOpts() runtime.AsyncOpts {
	return runtime.AsyncOpts{Levels: 2, Priority: p.labelPriority}
}
