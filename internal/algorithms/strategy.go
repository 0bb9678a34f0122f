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
// bsp and async rounds issue the same collective sequence, so the choice
// between them is host-local: hosts pushing in different shapes still
// meet at the same syncs. A pull round skips ReduceSync, so whether a
// round pulls is a global decision, taken on allreduced telemetry in
// lockstep on every host.
//
// No phase has both pull and async rounds: the shortcut, the only phase
// that drains, has no pull form.
type Strategy string

const (
	// StrategyBSP runs every round bsp. The zero value means the same.
	StrategyBSP Strategy = "bsp"
	// StrategyAsync drains every frontier-driven shortcut round; every
	// other round runs bsp.
	StrategyAsync Strategy = "async"
	// StrategyPull runs every pull-capable round bottom-up.
	StrategyPull Strategy = "pull"
	// StrategyAdaptive decides per round: a pull-capable round pulls or
	// pushes from allreduced frontier telemetry
	// (runtime.Adaptive.NextDirection); a shortcut round drains or runs
	// bsp from this host's own telemetry (runtime.Adaptive.NextMode).
	StrategyAdaptive Strategy = "adaptive"
)

// pullForm says how a phase's pull round relates to its push round.
type pullForm uint8

const (
	// pullNone: the phase has no pull round (the pointer-jumping
	// shortcut). It is the only form whose rounds may drain.
	pullNone pullForm = iota
	// pullExact: the pull round is the exact transpose of the push round
	// (CC-LP, CC-SCLP's propagation pass, MIS), so per-round states — and
	// round counts — coincide.
	pullExact
	// pullReformulated: the pull round reaches the same fixpoint by other
	// steps (CC-SV's hook; see policy.reformulated).
	pullReformulated
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

// policy resolves Config.Strategy into round shapes for one phase's
// label map. A nil *policy runs every round bsp; every method tolerates
// nil.
//
// Legality is settled once, at construction, and a shape that is not
// legal is never chosen:
//
//   - async needs a phase with no pull form (the shortcut), a frontier to
//     drain and in-place CAS applies (npm.AsyncNode: the Full variant);
//   - pull needs a pull-complete partition — every in-edge of every
//     master stored at that master's owner: IEC, or any single-host run —
//     and npm.Pull (the Full variant). Both are SPMD-identical
//     configuration, so every host agrees without a collective.
type policy struct {
	h  *runtime.Host
	ah *npm.AsyncNodeHandle          // nil: no async rounds
	ph *npm.PullHandle[graph.NodeID] // nil: no pull rounds
	ad *runtime.Adaptive             // nil: a static strategy

	half graph.NodeID // label-magnitude priority split point
	// pend is the shortcut drain's unresolved-remote set (see
	// shortcut), kept here so repeated phases reuse one
	// allocation. Sized like the frontier so drains over it share the
	// scheduler state.
	pend                     *par.Bitset
	prevApplied, prevRetries int64

	totalMasters int64 // allreduced once when pull is legal
	totalEdges   int64

	// reformulated marks a pull round that is a convergence-changing
	// reformulation of the push round rather than an exact transpose:
	// CC-SV's pull fold propagates labels one hop per round (LP-style)
	// where its push hook jumps through parent pointers, so pull rounds
	// are cheaper but retire less work. The density telemetry cannot see
	// that difference — on a high-diameter graph the frontier stays dense
	// for ~diameter rounds under pull — so under StrategyAdaptive a
	// reformulated phase gets a bounded trial (pullTrialRounds consecutive
	// pull rounds) before the policy pushes for the rest of the run.
	// Low-diameter phases finish inside the trial; high-diameter ones cap
	// their regret at the trial length instead of paying diameter rounds.
	// StrategyPull is exempt: a forced shape is the caller's choice. The
	// state is driven purely by the (globally agreed) direction sequence,
	// so all hosts stay in lockstep.
	reformulated bool
	pullStreak   int
	pullDone     bool
}

// pullTrialRounds bounds consecutive adaptive pull rounds for
// reformulated phases. The perf R-MAT's hook phase completes in ~5 pull
// rounds, well inside the budget; a 192x192 grid would otherwise take
// ~384.
const pullTrialRounds = 8

// newPolicy builds the policy for a phase over map m with frontier fr
// (nil under dense execution) whose pull round has the given form, or nil
// when every round runs bsp. Construction is collective when pull is
// legal (it allreduces the totals the pull rule needs); every condition
// deciding that is SPMD-identical across hosts.
func (c Config) newPolicy(h *runtime.Host, fr *runtime.Frontier, m npm.Map[graph.NodeID], form pullForm) *policy {
	s := c.Strategy
	switch s {
	case "", StrategyBSP:
		return nil
	case StrategyAsync, StrategyPull, StrategyAdaptive:
	default:
		panic(fmt.Sprintf("algorithms: unknown strategy %q", s))
	}
	p := &policy{h: h, half: graph.NodeID(h.HP.NumGlobalNodes() / 2), reformulated: form == pullReformulated}
	if s == StrategyAdaptive {
		p.ad = runtime.NewAdaptive(h)
	}
	switch {
	case form == pullNone:
		if s != StrategyPull && fr != nil {
			p.ah, _ = npm.AsyncNode(m)
		}
	case s != StrategyAsync && h.HP.PullEdgesComplete():
		p.ph, _ = npm.Pull(m)
	}
	if p.ah == nil && p.ph == nil {
		return nil
	}
	if p.ph != nil {
		h.HP.EnsureLocalInCSR(h.Threads)
		var masters, edges runtime.CountReducer
		masters.Set(int64(h.HP.NumMasters))
		masters.Sync(h.EP)
		// Pull-complete partitions store every edge exactly once, at its
		// destination's owner, so the local edge counts sum to |E|.
		edges.Set(h.HP.Local.NumEdges())
		edges.Sync(h.EP)
		p.totalMasters = masters.Read()
		p.totalEdges = edges.Read()
	}
	return p
}

// next decides the shape of a label round, pull or bsp, from the frontier
// entering it. Collective when pull is legal under StrategyAdaptive (see
// direction).
func (p *policy) next(fr *runtime.Frontier) roundKind {
	return pullOrBSP(p.direction(fr))
}

// nextFromActive is next for a phase that already holds the globally
// reduced active-master count (MIS's undecided count): the pull rule runs
// on it with no collective of its own.
func (p *policy) nextFromActive(activeMasters int64) roundKind {
	return pullOrBSP(p.directionFromActive(activeMasters))
}

func pullOrBSP(dir runtime.Direction) roundKind {
	if dir == runtime.DirPull {
		return roundPull
	}
	return roundBSP
}

// pushRound decides the shape of a shortcut round, async or bsp: it
// drains when async is legal and — under StrategyAdaptive — this host's
// telemetry says the drain pays.
func (p *policy) pushRound(fr *runtime.Frontier) roundKind {
	switch {
	case p == nil || p.ah == nil:
		return roundBSP
	case p.ad == nil || p.ad.NextMode(fr.Count()) == runtime.ModeAsync:
		return roundAsync
	}
	return roundBSP
}

// direction decides whether the coming round pulls, from the frontier
// entering it. Collective under StrategyAdaptive (two allreduces); static
// strategies — and dense adaptive rounds, whose telemetry is degenerate —
// answer locally.
func (p *policy) direction(fr *runtime.Frontier) runtime.Direction {
	if p == nil || p.ph == nil {
		return runtime.DirPush
	}
	if p.ad == nil {
		return runtime.DirPull
	}
	if fr == nil {
		// Dense execution visits every master every round: density is 1.0
		// by construction, so feed the rule the totals without a collective
		// (the same deterministic inputs on every host).
		return p.trial(p.ad.NextDirection(p.totalMasters, p.totalMasters, p.totalEdges, p.totalEdges))
	}
	var act, inEdges int64
	lg := p.h.HP.Local
	for i := 0; i < p.h.HP.NumMasters; i++ {
		if fr.IsActive(i) {
			act++
			inEdges += int64(lg.InDegree(graph.NodeID(i)))
		}
	}
	var gAct, gIn runtime.CountReducer
	gAct.Set(act)
	gAct.Sync(p.h.EP)
	gIn.Set(inEdges)
	gIn.Sync(p.h.EP)
	return p.trial(p.ad.NextDirection(gAct.Read(), p.totalMasters, gIn.Read(), p.totalEdges))
}

// directionFromActive decides a round's direction from an
// already-allreduced active-master count. The active in-edge volume is
// estimated as active * average in-degree — exact enough for the density
// trigger, and a deterministic function of global inputs.
func (p *policy) directionFromActive(activeMasters int64) runtime.Direction {
	if p == nil || p.ph == nil {
		return runtime.DirPush
	}
	if p.ad == nil {
		return runtime.DirPull
	}
	est := int64(0)
	if p.totalMasters > 0 {
		est = activeMasters * (p.totalEdges / p.totalMasters)
	}
	return p.trial(p.ad.NextDirection(activeMasters, p.totalMasters, est, p.totalEdges))
}

// trial applies the bounded pull trial to an adaptive decision for a
// reformulated phase (see the reformulated field doc); everywhere else it
// is the identity.
func (p *policy) trial(dir runtime.Direction) runtime.Direction {
	if !p.reformulated {
		return dir
	}
	if p.pullDone {
		return runtime.DirPush
	}
	if dir != runtime.DirPull {
		p.pullStreak = 0
		return dir
	}
	p.pullStreak++
	if p.pullStreak > pullTrialRounds {
		p.pullDone = true
		return runtime.DirPush
	}
	return dir
}

// observe feeds one finished round's telemetry to the adaptive mode rule
// (a no-op unless async is legal under StrategyAdaptive).
func (p *policy) observe(k roundKind, fr *runtime.Frontier) {
	if p == nil || p.ad == nil || p.ah == nil || fr == nil {
		return
	}
	mode := runtime.ModeBSP
	if k == roundAsync {
		mode = runtime.ModeAsync
	}
	applied, retries := p.ah.CASStats()
	p.ad.Observe(runtime.RoundTelemetry{
		Active:       fr.Count(),
		FrontierSize: fr.Size(),
		Mode:         mode,
		CASApplied:   applied - p.prevApplied,
		CASRetries:   retries - p.prevRetries,
	})
	p.prevApplied, p.prevRetries = applied, retries
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
