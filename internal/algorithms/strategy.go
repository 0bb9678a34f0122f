package algorithms

import (
	"fmt"

	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

// Strategy selects how the frontier-driven rounds of CC-SV, CC-LP,
// CC-SCLP and MIS execute (see Config.Strategy). Every round runs in one
// of three shapes:
//
//   - bsp: push along out-edges; reduces are buffered thread-locally and
//     applied at ReduceSync (DESIGN.md §8).
//   - async: push, with the compute phase drained by the priority
//     scheduler (runtime.AsyncDrain) and local targets CAS-applied in
//     place (§12). Only the pointer-jumping shortcut has an async round:
//     its path-halving chase collapses a whole local parent chain in one
//     drain. Label and MIS rounds have none: their drains never beat bsp
//     (DESIGN.md §16 (h)).
//   - pull: every master folds its in-neighbors over the transpose CSR
//     into its own slot; the round has no reduce collective and ends with
//     the broadcast alone (§15).
//
// The strategy is static: each phase's shape is settled once, when its
// policy is built, and every round of the phase runs in it. No phase has
// both pull and async rounds: the shortcut, the only phase that drains,
// has no pull form.
type Strategy string

const (
	// StrategyBSP runs every round bsp. The zero value means the same.
	StrategyBSP Strategy = "bsp"
	// StrategyAsync drains every frontier-driven shortcut round; every
	// other round runs bsp.
	StrategyAsync Strategy = "async"
	// StrategyPull runs every pull-capable round bottom-up.
	StrategyPull Strategy = "pull"
)

// roundKind is the shape one round ran in (see Strategy).
type roundKind uint8

const (
	roundBSP roundKind = iota
	roundAsync
	roundPull
)

func (k roundKind) String() string {
	switch k {
	case roundAsync:
		return "async"
	case roundPull:
		return "pull"
	}
	return "bsp"
}

// policy resolves Config.Strategy into the round shape of one phase over
// one label map. A nil *policy runs every round bsp; every method
// tolerates nil.
//
// Legality is settled once, at construction, and a shape that is not
// legal falls back to bsp:
//
//   - async needs a phase with no pull form (the shortcut), a frontier to
//     drain and in-place CAS applies (npm.AsyncNode: the Full variant);
//   - pull needs a pull-capable phase, a pull-complete partition — every
//     in-edge of every master stored at that master's owner: IEC, or any
//     single-host run — and npm.Pull (the Full variant).
//
// Every condition is SPMD-identical configuration, so all hosts settle on
// the same shape without a collective and meet at the same syncs.
type policy struct {
	h  *runtime.Host
	ah *npm.AsyncNodeHandle          // nil: no async rounds
	ph *npm.PullHandle[graph.NodeID] // nil: no pull rounds

	half graph.NodeID // label-magnitude priority split point
	// pend is the shortcut drain's unresolved-remote set (see
	// shortcut), kept here so repeated phases reuse one
	// allocation. Sized like the frontier so drains over it share the
	// scheduler state.
	pend *par.Bitset
}

// newPolicy builds the policy for a phase over map m with frontier fr
// (nil under dense execution), or nil when every round runs bsp. pullable
// says whether the phase has a pull round; a phase without one (the
// pointer-jumping shortcut) is the only kind whose rounds may drain.
func (c Config) newPolicy(h *runtime.Host, fr *runtime.Frontier, m npm.Map[graph.NodeID], pullable bool) *policy {
	var ah *npm.AsyncNodeHandle
	var ph *npm.PullHandle[graph.NodeID]
	switch c.Strategy {
	case "", StrategyBSP:
	case StrategyAsync:
		if !pullable && fr != nil {
			ah, _ = npm.AsyncNode(m)
		}
	case StrategyPull:
		if pullable && h.HP.PullEdgesComplete() {
			ph, _ = npm.Pull(m)
		}
	default:
		panic(fmt.Sprintf("algorithms: unknown strategy %q", c.Strategy))
	}
	switch {
	case ph != nil:
		h.HP.EnsureLocalInCSR(h.Threads)
	case ah == nil:
		return nil
	}
	return &policy{h: h, ah: ah, ph: ph, half: graph.NodeID(h.HP.NumGlobalNodes() / 2)}
}

// shape is the shape every round of the policy's phase runs in.
func (p *policy) shape() roundKind {
	switch {
	case p == nil:
		return roundBSP
	case p.ph != nil:
		return roundPull
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
