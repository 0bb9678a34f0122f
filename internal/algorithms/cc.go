package algorithms

import (
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

// The three connected-components algorithms from the paper (§6.1):
// CC-SV (Shiloach-Vishkin, trans-vertex), CC-LP (label propagation,
// adjacent-vertex), and CC-SCLP (shortcutting label propagation, both).
// All label every node with the smallest node ID in its component.
//
// CC-SV and CC-LP run frontier-driven by default on the Full variant (see
// DESIGN.md §10): the property map activates every local proxy whose value
// changes during a sync phase, and the next round iterates only the active
// set. Late rounds — where <1% of vertices still change — then cost
// O(active) instead of O(|V|). Config.Dense restores the dense loops; the
// labels are identical either way (the min-label fixpoint does not depend
// on evaluation order).
//
// Every label round of the three — CC-SV's hook, CC-LP's propagation and
// CC-SCLP's propagation pass — runs bsp through one loop, labelRun.rounds,
// which sequences the round; the pointer-jumping shortcut, the one phase
// whose rounds may drain asynchronously (see Strategy), is shortcut.

// CCStats reports per-run counters.
type CCStats struct {
	HookRounds     int // hook (or propagate) BSP rounds
	ShortcutRounds int
	OuterRounds    int
	// Converged reports that the run stopped because a round changed no
	// label, not because Config.MaxRounds cut it off: only then are the
	// labels the connected components.
	Converged bool
	// PerRound is filled under Config.LogRounds, one entry per BSP round in
	// execution order (hook rounds, then shortcut rounds, per outer round).
	PerRound RoundStats
}

// labelRun is the state a label algorithm threads through its phases:
// the label map, its frontier (nil under dense execution) and the round
// log (nil: off).
type labelRun struct {
	h   *runtime.Host
	cfg Config
	m   npm.Map[graph.NodeID]
	fr  *runtime.Frontier
	rl  *roundLogger
}

// newLabelRun builds a min-label map holding every node's own ID, and the
// frontier and round log over it.
func (c Config) newLabelRun(h *runtime.Host, stats *CCStats) *labelRun {
	c.checkStrategy()
	m := c.newNodeMap(h, npm.MinNodeID())
	initOwn(h, m)
	return &labelRun{h: h, cfg: c, m: m, fr: c.newFrontier(h, m),
		rl: c.roundLogger(h, &stats.PerRound)}
}

// finish collects this host's master labels into out.
func (r *labelRun) finish(out []graph.NodeID) {
	CollectNodeValues(r.h, r.m, out)
	r.cfg.recordStats(r.m)
}

// rounds runs bsp label rounds on the pinned map until a round changes no
// label or limit rounds have run, and returns how many ran and whether the
// last one changed no label (false: limit cut the phase off). Each round
// pushes over fr (every local node when fr is nil), then runs ReduceSync
// and the broadcast, so each round starts on fresh mirrors.
func (r *labelRun) rounds(fr *runtime.Frontier, limit int, push func(tid int, src graph.NodeID)) (n int, quiet bool) {
	h, m := r.h, r.m
	for n = 1; ; n++ {
		m.ResetUpdated()
		if r.cfg.requestActive() {
			requestLocalProxies(h, m)
		}
		h.TimeCompute(func() {
			if fr != nil {
				h.ParForActive(fr, push)
			} else {
				h.ParForNodes(push)
			}
		})
		m.ReduceSync()
		m.BroadcastSync()
		endRound(r.rl, fr, roundBSP, true, h.HP.NumLocal())
		if quiet = !m.IsUpdated(); quiet || n >= limit {
			return n, quiet
		}
	}
}

// endRound closes a round after its last sync: it advances the frontier
// and logs the round. dense is the round's visit count when there is no
// frontier.
func endRound(rl *roundLogger, fr *runtime.Frontier, k roundKind, hook bool, dense int) {
	active := dense
	if fr != nil {
		active = fr.Count()
		fr.Advance()
	}
	rl.record(active, hook, k)
}

// CCSV runs Shiloach-Vishkin connected components on one host (SPMD).
// It is the hand-written equivalent of the compiler output in Figure 8.
// After it returns, out (length = global node count) holds this host's
// master labels.
func CCSV(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	var stats CCStats
	r := cfg.newLabelRun(h, &stats)
	// The shortcut is the one phase whose rounds may drain.
	sc := cfg.newPolicy(h, r.fr, r.m)
	// acc accumulates every proxy the shortcut phase changes, so the next
	// outer round's hook phase can start from the changed set instead of a
	// full re-activation (the first hook phase has no prior change record
	// and starts dense: seed is nil until a shortcut phase has run).
	var acc, seed *par.Bitset
	if r.fr != nil {
		acc = par.NewBitset(h.HP.NumLocal())
	}
	var workDone runtime.BoolReducer
	for {
		stats.OuterRounds++
		workDone.Set(false)
		stats.HookRounds += r.hook(&workDone, seed)
		n, quiet := shortcut(h, cfg, r.m, r.fr, sc, r.rl, acc)
		stats.ShortcutRounds += n
		seed = acc
		workDone.Sync(h.EP)
		// Converged: no hook did work and the shortcut ran to quiescence.
		stats.Converged = !workDone.Read() && quiet
		if !workDone.Read() || stats.OuterRounds >= cfg.maxRounds() {
			break
		}
	}
	r.finish(out)
	return stats
}

// hook applies the hook operator until quiescence: for every edge
// src->dst with parent(src) > parent(dst), min-reduce parent(parent(src))
// by parent(dst). Reads touch only the active node and its neighbors, so
// the compiler pins mirrors and elides requests (§5.2); the reduce target
// parent(src) is an arbitrary node (trans-vertex).
//
// With a frontier, only proxies whose parent changed last round are
// visited, and the hook is applied in *both* directions of each stored
// edge: when parent(dst) changes, the host storing src->dst may hold dst
// only as a mirror with no out-edges, so the re-examination of that edge
// must happen from dst's side wherever the symmetrized counterpart lives —
// iterating every activated proxy and hooking both ways covers every edge
// incident to a changed node. The reverse direction is skipped when dst is
// itself active: activation is consistent across every host holding a
// proxy (the same sync delivers the change everywhere), so an active dst
// is visited wherever the symmetrized edge dst->src lives and its forward
// hook covers that side — skipping keeps the frontier run's reduces a
// subset of the dense run's (a full frontier degenerates to exactly the
// dense loop) instead of doubling edge work when both endpoints changed.
// The extra direction is a no-op for the dense loop's fixpoint (min-reduce
// is idempotent), so labels stay identical.
func (r *labelRun) hook(workDone *runtime.BoolReducer, seed *par.Bitset) int {
	h, parent, fr := r.h, r.m, r.fr
	// Reset before pinning: PinMirrors refreshes mirrors from masters and
	// activates every mirror whose value changed since the last unpin, and
	// those activations must land in the next set the seed joins.
	if fr != nil {
		fr.Reset()
	}
	parent.PinMirrors()
	if fr != nil {
		if seed != nil {
			// Masters the preceding shortcut phase changed; together with
			// the pin-time mirror activations this covers every proxy whose
			// parent moved since the last hook round.
			fr.ActivateSet(seed)
			seed.Clear()
		} else {
			// First hook phase: no prior change record, start dense.
			fr.ActivateAll()
		}
		fr.Advance()
	}
	local, lv := h.HP.Local, npm.Local(parent)
	rounds, _ := r.rounds(fr, r.cfg.maxRounds(), func(tid int, src graph.NodeID) {
		srcParent := lv.Value(src)
		lo, hi := local.EdgeRange(src)
		for e := lo; e < hi; e++ {
			dst := local.Dst(e)
			dstParent := lv.Value(dst)
			if srcParent > dstParent {
				workDone.Reduce(true)
				parent.Reduce(tid, srcParent, dstParent)
			} else if fr != nil && dstParent > srcParent && !fr.IsActive(int(dst)) {
				workDone.Reduce(true)
				parent.Reduce(tid, dstParent, srcParent)
			}
		}
	})
	parent.UnpinMirrors()
	return rounds
}

// shortcut applies pointer jumping to parent until quiescence:
// parent(n) <- parent(parent(n)). The grandparent read targets an
// arbitrary node, so each round requests it explicitly (the Figure 8
// generated code); the compiler's master-elision restricts iteration to
// master nodes. fr is the frontier (nil: every master every round), pol
// the round policy and rl the round log (each nil: bsp only, no log).
// When acc is set, each round's changed masters are ored into it,
// seeding the next hook phase (see CCSV). It returns the rounds run and
// whether the last changed no parent (false: MaxRounds cut it off).
//
// The frontier starts with every master (the preceding phase changed
// parents untracked) and then narrows to masters whose parent changed:
// once a master points at a root its shortcut stays ineffective — roots
// keep pointing at themselves within the phase — until its own parent
// changes again, which re-activates it.
//
// An async round replaces the request/jump passes with two drains around
// the same RequestSync: a chase drain that collapses every
// locally-readable parent chain in place (requesting the parents it cannot
// read), then a resolve drain over the requesters that jumps through the
// fresh cache. One async round does the work of a whole local chain of bsp
// rounds; cross-host chains still advance one request round at a time,
// exactly like bsp.
func shortcut(h *runtime.Host, cfg Config, parent npm.Map[graph.NodeID], fr *runtime.Frontier,
	pol *policy, rl *roundLogger, acc *par.Bitset) (rounds int, quiet bool) {

	if fr != nil {
		// Reset discards stale activations (e.g. mirror bits from a prior
		// broadcast); shortcut iterates masters only.
		fr.Reset()
		fr.ActivateRange(0, h.HP.NumMasters)
		fr.Advance()
	}
	// Request phase generated by the operator split: read parent(n),
	// request parent(parent(n)).
	reqBody := func(_ int, local graph.NodeID) {
		p := parent.Read(h.HP.GlobalID(local))
		parent.Request(p)
	}
	body := func(tid int, local graph.NodeID) {
		gid := h.HP.GlobalID(local)
		p := parent.Read(gid)
		gp := parent.Read(p)
		if p != gp {
			parent.Reduce(tid, gid, gp)
		}
	}
	k := pol.shape()
	for rounds = 1; ; rounds++ {
		parent.ResetUpdated()
		if cfg.requestActive() {
			requestLocalProxies(h, parent)
		}
		if k == roundAsync {
			pend := pol.pendSet()
			h.TimeCompute(func() {
				h.AsyncDrain(fr, pol.ccAsyncOpts(), ccChaseBody(h, pol, parent, fr, pend, true))
			})
			parent.RequestSync()
			h.TimeCompute(func() {
				h.AsyncDrainBits(pend, pol.ccAsyncOpts(), ccChaseBody(h, pol, parent, fr, pend, false))
			})
		} else {
			h.TimeCompute(func() {
				if fr != nil {
					h.ParForActive(fr, reqBody)
				} else {
					h.ParForMasters(reqBody)
				}
			})
			parent.RequestSync()
			h.TimeCompute(func() {
				if fr != nil {
					h.ParForActive(fr, body)
				} else {
					h.ParForMasters(body)
				}
			})
		}
		parent.ReduceSync()
		endRound(rl, fr, k, false, h.HP.NumMasters)
		if acc != nil {
			fr.OrCurrentInto(acc)
		}
		if quiet = !parent.IsUpdated(); quiet || rounds >= cfg.maxRounds() {
			return rounds, quiet
		}
	}
}

// ccChaseBody builds the shortcut drain body: chase n's parent chain,
// CAS-lowering parent(n) as long as each grandparent is locally readable
// (master, or this round's request cache). On an unreadable parent the
// chase parks: the first drain requests it and records n in pend for the
// post-RequestSync resolve drain; the resolve drain re-activates n for
// the next round instead (its parent moved past what was requested).
// Any change re-activates n — the same changed-masters activation rule
// the bsp path gets from applyToMaster, which keeps acc seeding and
// round-narrowing behavior identical across shapes.
func ccChaseBody(h *runtime.Host, pol *policy, parent npm.Map[graph.NodeID],
	fr *runtime.Frontier, pend *par.Bitset, requestMissing bool,
) func(tid int, n graph.NodeID, cx *runtime.AsyncCtx) {

	ah := pol.ah
	return func(tid int, n graph.NodeID, _ *runtime.AsyncCtx) {
		gid := h.HP.GlobalID(n)
		changed := false
		// Walk gid's parent chain with path halving: the cursor visits
		// v -> parent(parent(v)) -> ..., and every visited node is jumped
		// past its parent to its grandparent (the classic union-find
		// compression). Each walk halves the chain it traverses, so total
		// chase work over a drain stays near-linear no matter which end of
		// a deep chain drains first. Compressing only the chasing vertex —
		// the naive loop — re-walks the same tail from every seed for
		// O(n^2) total on a chain, the exact workload the async shape
		// exists to win.
		miss := func(x graph.NodeID) {
			if requestMissing {
				parent.Request(x)
				pend.Set(int(n))
			} else {
				fr.Activate(int(n))
			}
		}
		v := gid
		var root graph.NodeID
		haveRoot := false
		for {
			p, ok := ah.Load(v) // v=gid is our master, always readable; deeper nodes may not be
			if !ok {
				miss(v)
				break
			}
			if p == v {
				root, haveRoot = p, true
				break
			}
			gp, ok := ah.Load(p)
			if !ok {
				miss(p)
				break
			}
			if gp == p {
				root, haveRoot = gp, true // parent is a root; v already points at it
				break
			}
			// Jump v past p. Local targets apply via CAS (activating the
			// changed master, the bsp rule: a parent that moved re-examines
			// next round); remote targets buffer for the next reduce-sync.
			if lv, applied, ch := ah.ReduceAsync(tid, v, gp); applied && ch {
				fr.Activate(int(lv))
			}
			v = gp
		}
		// The walk halves the chain but only moves gid one jump; finish by
		// pulling gid all the way to the terminal root so one drain fully
		// collapses the chase, like the bsp loop's repeated rounds would.
		if haveRoot {
			if _, _, ch := ah.ReduceAsync(tid, gid, root); ch {
				changed = true
			}
		}
		if changed {
			fr.Activate(int(n))
		}
	}
}

// CCLP runs label-propagation connected components (SPMD): each round
// every node pushes its label to its neighbors with a min reduction. A
// pure adjacent-vertex program — mirrors stay pinned and no requests are
// ever needed, matching Gluon's execution. With a frontier only proxies
// whose label shrank last round push: a push from src can only become
// effective after label(src) itself shrinks (neighbor labels only ever
// decrease, which never enables src's push), so label-change activation
// covers every effective push.
func CCLP(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	var stats CCStats
	r := cfg.newLabelRun(h, &stats)
	comp, local := r.m, h.HP.Local
	lv := npm.Local(comp)
	comp.PinMirrors()
	if r.fr != nil {
		r.fr.ActivateAll()
		r.fr.Advance()
	}
	stats.HookRounds, stats.Converged = r.rounds(r.fr, cfg.maxRounds(), func(tid int, src graph.NodeID) {
		label := lv.Value(src)
		lo, hi := local.EdgeRange(src)
		for e := lo; e < hi; e++ {
			if dst := local.Dst(e); label < lv.Value(dst) {
				lv.Reduce(tid, dst, label)
			}
		}
	})
	comp.UnpinMirrors()
	stats.OuterRounds = 1
	r.finish(out)
	return stats
}

// CCSCLP runs shortcutting label propagation (Stergiou et al.): label
// propagation rounds interleaved with pointer-jumping shortcut rounds.
// Propagation is adjacent-vertex; the shortcut is trans-vertex. Each outer
// round runs exactly one full propagation pass, so only the shortcut
// phases are frontier-driven.
func CCSCLP(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	var stats CCStats
	r := cfg.newLabelRun(h, &stats)
	comp, local := r.m, h.HP.Local
	lv := npm.Local(comp)
	// The shortcut is the one phase whose rounds may drain.
	sc := cfg.newPolicy(h, r.fr, comp)
	for {
		stats.OuterRounds++
		var workDone runtime.BoolReducer
		workDone.Set(false)
		comp.PinMirrors()
		// The propagation pass runs without the frontier: it visits every
		// node.
		n, _ := r.rounds(nil, 1, func(tid int, src graph.NodeID) {
			label := lv.Value(src)
			lo, hi := local.EdgeRange(src)
			for e := lo; e < hi; e++ {
				if dst := local.Dst(e); label < lv.Value(dst) {
					workDone.Reduce(true)
					lv.Reduce(tid, dst, label)
				}
			}
		})
		stats.HookRounds += n
		comp.UnpinMirrors()

		// Shortcut to collapse label chains.
		n, quiet := shortcut(h, cfg, comp, r.fr, sc, r.rl, nil)
		stats.ShortcutRounds += n

		workDone.Sync(h.EP)
		stats.Converged = !workDone.Read() && quiet
		if !workDone.Read() || stats.OuterRounds >= cfg.maxRounds() {
			break
		}
	}
	r.finish(out)
	return stats
}
