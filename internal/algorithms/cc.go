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

// CCStats reports per-run counters.
type CCStats struct {
	HookRounds     int // hook (or propagate) BSP rounds
	ShortcutRounds int
	OuterRounds    int
	// PerRound is filled under Config.LogRounds, one entry per BSP round in
	// execution order (hook rounds, then shortcut rounds, per outer round).
	PerRound RoundStats
}

// CCSV runs Shiloach-Vishkin connected components on one host (SPMD).
// It is the hand-written equivalent of the compiler output in Figure 8.
// After it returns, out (length = global node count) holds this host's
// master labels.
func CCSV(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	parent := cfg.newNodeMap(h, npm.MinNodeID())
	initOwn(h, parent)

	var stats CCStats
	fr := cfg.newFrontier(h, parent)
	rl := cfg.roundLogger(h, &stats.PerRound)
	// CC-SV's pull hook is a reformulation (LP-style one-hop fold, not a
	// transpose of the pointer-jumping hook), so adaptive pull runs under
	// the bounded trial.
	de := cfg.newDirEngine(h, parent, true)
	eng := cfg.newEngine(h, fr, parent)
	if de != nil {
		// Direction-capable phases run BSP rounds only: a pull round's
		// collective sequence is fixed globally, and the async drain's
		// in-place mirror CAS would break the mirror freshness pull
		// rounds depend on (see direction.go).
		eng = nil
	}
	// acc accumulates every proxy the shortcut phase changes, so the next
	// outer round's hook phase can start from the changed set instead of a
	// full re-activation (the first hook phase has no prior change record
	// and starts dense: seed is nil until a shortcut phase has run).
	var acc, seed *par.Bitset
	if fr != nil {
		acc = par.NewBitset(h.HP.NumLocal())
	}
	var workDone runtime.BoolReducer
	for {
		stats.OuterRounds++
		workDone.Set(false)
		stats.HookRounds += ccHook(h, cfg, parent, &workDone, fr, seed, rl, eng, de)
		stats.ShortcutRounds += ccShortcut(h, cfg, parent, fr, acc, rl, eng)
		seed = acc
		workDone.Sync(h.EP)
		if !workDone.Read() || stats.OuterRounds >= cfg.maxRounds() {
			break
		}
	}
	CollectNodeValues(h, parent, out)
	cfg.recordStats(parent)
	return stats
}

// ccHook applies the hook operator until quiescence: for every edge
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
// Under a non-BSP engine, a round's compute phase may instead drain the
// frontier asynchronously (see ccHookDrain): CAS in-place applies and
// immediate re-enqueue collapse local hook cascades within the round,
// while the per-round collective sequence (ReduceSync, BroadcastSync,
// IsUpdated) is identical in both modes, so hosts running different modes
// still meet at the same syncs.
//
// Under a direction engine, a dense round may run bottom-up instead
// (pullMinRound): the SV hook's reduce target parent(src) is an arbitrary
// node and cannot be pulled, so pull rounds use the label-propagation
// formulation — each master min-folds its in-neighbors' labels into
// itself. Both formulations monotonically lower labels toward the same
// unique min-ID fixpoint (generators symmetrize, so in-neighbors cover
// every incident edge), and the interleaved shortcut phases collapse the
// parent chains either way: converged labels are bit-identical, though
// round counts may differ. A pull round skips ReduceSync entirely and
// the direction choice is global (see direction.go), so hosts still
// agree on every round's collective sequence.
func ccHook(h *runtime.Host, cfg Config, parent npm.Map[graph.NodeID],
	workDone *runtime.BoolReducer, fr *runtime.Frontier, seed *par.Bitset,
	rl *roundLogger, eng *engine, de *dirEngine) int {

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
	rounds := 0
	for {
		rounds++
		parent.ResetUpdated()
		if cfg.requestActive() {
			requestLocalProxies(h, parent)
		}
		local := h.HP.Local
		mode := runtime.ModeBSP
		var drain runtime.DrainStats
		if fr != nil {
			mode = eng.roundMode(fr.Count())
		}
		dir := de.roundDirection(fr)
		switch {
		case dir == runtime.DirPull:
			// Bottom-up: dense master scan over the in-edge CSR, plain
			// stores into own slots, no reduce collective this round.
			h.TimeCompute(func() {
				pullMinRound(h, de.ph, workDone)
			})
		case mode == runtime.ModeAsync:
			h.TimeCompute(func() {
				drain = ccHookDrain(h, eng, workDone, fr)
			})
			parent.ReduceSync()
		default:
			body := func(tid int, src graph.NodeID) {
				srcParent := parent.Read(h.HP.GlobalID(src))
				lo, hi := local.EdgeRange(src)
				for e := lo; e < hi; e++ {
					dst := local.Dst(e)
					dstParent := parent.Read(h.HP.GlobalID(dst))
					// Parent values are original IDs; the reduce target is
					// the parent *node*, so translate to its current ID
					// before addressing it (identity without reordering).
					if srcParent > dstParent {
						workDone.Reduce(true)
						parent.Reduce(tid, h.HP.CurrentID(srcParent), dstParent)
					} else if fr != nil && dstParent > srcParent && !fr.IsActive(int(dst)) {
						workDone.Reduce(true)
						parent.Reduce(tid, h.HP.CurrentID(dstParent), srcParent)
					}
				}
			}
			h.TimeCompute(func() {
				if fr != nil {
					h.ParForActive(fr, body)
				} else {
					h.ParForNodes(body)
				}
			})
			parent.ReduceSync()
		}
		// A pull round never staged a reduce — each push arm synced its own
		// above — so every direction ends the round with the broadcast.
		parent.BroadcastSync()
		active := h.HP.NumLocal()
		if fr != nil {
			active = fr.Count()
			eng.observe(mode, active, fr.Size(), drain)
			fr.Advance()
		}
		rl.record(active, true, mode, dir)
		if !parent.IsUpdated() || rounds >= cfg.maxRounds() {
			break
		}
	}
	parent.UnpinMirrors()
	return rounds
}

// ccHookDrain is ccHook's compute phase as an asynchronous drain: reads
// and reduces go through the CAS handle (local targets apply in place;
// remote ones still buffer for the next reduce-sync), and a target whose
// parent changed is activated for the next round — the in-place apply
// means the next round reads it without waiting for a reduce/broadcast
// round-trip. Changed targets are deliberately NOT re-enqueued in-drain:
// hook cascades lower labels one hop at a time, so running them to
// quiescence before any shortcut phase degenerates to O(n^2) on deep
// chains — exactly the workload where BSP's interleaved pointer jumping
// stays O(n log n). The chain-collapsing win belongs to the shortcut
// drain (ccChaseBody), which compresses with path halving.
//
// One deliberate difference from the BSP body: BSP skips the
// reverse-direction hook when dst is itself active, because dst's own
// visit covers that edge with the same round-start values. Mid-drain that
// argument breaks — dst's body may have run before parent(src) dropped —
// so the drain applies both directions unconditionally (idempotent min
// applies; the redundancy is harmless).
// Unmaterialized reads (ok=false) cannot occur here: mirrors are pinned
// for the whole hook phase, and every edge endpoint is a local proxy.
func ccHookDrain(h *runtime.Host, eng *engine, workDone *runtime.BoolReducer,
	fr *runtime.Frontier) runtime.DrainStats {

	local := h.HP.Local
	ah := eng.ah
	return h.AsyncDrain(fr, eng.ccAsyncOpts(), func(tid int, src graph.NodeID, _ *runtime.AsyncCtx) {
		srcParent, ok := ah.Load(h.HP.GlobalID(src))
		if !ok {
			return
		}
		lo, hi := local.EdgeRange(src)
		for e := lo; e < hi; e++ {
			dst := local.Dst(e)
			dstParent, ok := ah.Load(h.HP.GlobalID(dst))
			if !ok {
				continue
			}
			if srcParent > dstParent {
				workDone.Reduce(true)
				if l, applied, changed := ah.ReduceAsync(tid, h.HP.CurrentID(srcParent), dstParent); applied && changed {
					fr.Activate(int(l))
				}
			} else if dstParent > srcParent {
				workDone.Reduce(true)
				if l, applied, changed := ah.ReduceAsync(tid, h.HP.CurrentID(dstParent), srcParent); applied && changed {
					fr.Activate(int(l))
				}
			}
		}
	})
}

// ccShortcut applies pointer jumping until quiescence:
// parent(n) <- parent(parent(n)). The grandparent read targets an
// arbitrary node, so each round requests it explicitly (the Figure 8
// generated code); the compiler's master-elision restricts iteration to
// master nodes.
//
// The frontier starts with every master (the preceding phase changed
// parents untracked) and then narrows to masters whose parent changed:
// once a master points at a root its shortcut stays ineffective — roots
// keep pointing at themselves within the phase — until its own parent
// changes again, which re-activates it.
// Under a non-BSP engine, an async round replaces the request/jump passes
// with two drains around the same RequestSync: a chase drain that
// collapses every locally-readable parent chain in place (requesting the
// parents it cannot read), then a resolve drain over the requesters that
// jumps through the fresh cache. One async round does the work of a whole
// local chain of BSP rounds; cross-host chains still advance one request
// round at a time, exactly like BSP.
func ccShortcut(h *runtime.Host, cfg Config, parent npm.Map[graph.NodeID],
	fr *runtime.Frontier, acc *par.Bitset, rl *roundLogger, eng *engine) int {

	if fr != nil {
		// Reset discards stale activations (e.g. mirror bits from a prior
		// broadcast); shortcut iterates masters only.
		fr.Reset()
		fr.ActivateRange(0, h.HP.NumMasters)
		fr.Advance()
	}
	rounds := 0
	for {
		rounds++
		parent.ResetUpdated()
		if cfg.requestActive() {
			requestLocalProxies(h, parent)
		}
		mode := runtime.ModeBSP
		var drain runtime.DrainStats
		if fr != nil {
			mode = eng.roundMode(fr.Count())
		}
		if mode == runtime.ModeAsync {
			pend := eng.pendSet()
			h.TimeCompute(func() {
				drain = h.AsyncDrain(fr, eng.ccAsyncOpts(), ccChaseBody(h, eng, parent, fr, pend, true))
			})
			parent.RequestSync()
			h.TimeCompute(func() {
				resolved := h.AsyncDrainBits(pend, eng.ccAsyncOpts(), ccChaseBody(h, eng, parent, fr, pend, false))
				drain.Accumulate(resolved)
			})
		} else {
			// Request phase generated by the operator split: read parent(n),
			// request parent(parent(n)).
			reqBody := func(_ int, local graph.NodeID) {
				p := parent.Read(h.HP.GlobalID(local))
				parent.Request(h.HP.CurrentID(p))
			}
			h.TimeCompute(func() {
				if fr != nil {
					h.ParForActive(fr, reqBody)
				} else {
					h.ParForMasters(reqBody)
				}
			})
			parent.RequestSync()
			body := func(tid int, local graph.NodeID) {
				gid := h.HP.GlobalID(local)
				p := parent.Read(gid)
				gp := parent.Read(h.HP.CurrentID(p))
				if p != gp {
					parent.Reduce(tid, gid, gp)
				}
			}
			h.TimeCompute(func() {
				if fr != nil {
					h.ParForActive(fr, body)
				} else {
					h.ParForMasters(body)
				}
			})
		}
		parent.ReduceSync()
		active := h.HP.NumMasters
		if fr != nil {
			active = fr.Count()
			eng.observe(mode, active, fr.Size(), drain)
			fr.Advance()
			if acc != nil {
				// Record this round's changed masters for the next hook
				// phase's seed (see CCSV).
				fr.OrCurrentInto(acc)
			}
		}
		rl.record(active, false, mode, runtime.DirPush)
		if !parent.IsUpdated() || rounds >= cfg.maxRounds() {
			break
		}
	}
	return rounds
}

// ccChaseBody builds the shortcut drain body: chase n's parent chain,
// CAS-lowering parent(n) as long as each grandparent is locally readable
// (master, or this round's request cache). On an unreadable parent the
// chase parks: the first drain requests it and records n in pend for the
// post-RequestSync resolve drain; the resolve drain re-activates n for
// the next BSP round instead (its parent moved past what was requested).
// Any change re-activates n — the same changed-masters activation rule
// the BSP path gets from applyToMaster, which keeps acc seeding and
// round-narrowing behavior identical across modes.
func ccChaseBody(h *runtime.Host, eng *engine, parent npm.Map[graph.NodeID],
	fr *runtime.Frontier, pend *par.Bitset, requestMissing bool,
) func(tid int, n graph.NodeID, cx *runtime.AsyncCtx) {

	ah := eng.ah
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
		// O(n^2) total on a chain, the exact workload the async mode
		// exists to win.
		miss := func(x graph.NodeID) {
			if requestMissing {
				parent.Request(x)
				pend.Set(int(n))
			} else {
				fr.Activate(int(n))
			}
		}
		// The cursor is an (address, original-ID) pair: parent *values* live
		// in original-ID space (see initOwn), while every Load/ReduceAsync
		// target must be a current (reordered) node ID. Without reordering
		// the two coincide and this is the plain single-cursor walk.
		vAddr := gid
		vOrig := h.HP.OriginalID(gid)
		var root graph.NodeID // original-ID-space label
		haveRoot := false
		for {
			p, ok := ah.Load(vAddr) // vAddr=gid is our master, always readable; deeper nodes may not be
			if !ok {
				miss(vAddr)
				break
			}
			if p == vOrig {
				root, haveRoot = p, true
				break
			}
			pAddr := h.HP.CurrentID(p)
			gp, ok := ah.Load(pAddr)
			if !ok {
				miss(pAddr)
				break
			}
			if gp == p {
				root, haveRoot = gp, true // parent is a root; v already points at it
				break
			}
			// Jump v past p. Local targets apply via CAS (activating the
			// changed master, the BSP rule: a parent that moved re-examines
			// next round); remote targets buffer for the next reduce-sync.
			if lv, applied, ch := ah.ReduceAsync(tid, vAddr, gp); applied && ch {
				fr.Activate(int(lv))
			}
			vAddr, vOrig = h.HP.CurrentID(gp), gp
		}
		// The walk halves the chain but only moves gid one jump; finish by
		// pulling gid all the way to the terminal root so one drain fully
		// collapses the chase, like the BSP loop's repeated rounds would.
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
	comp := cfg.newNodeMap(h, npm.MinNodeID())
	initOwn(h, comp)

	var stats CCStats
	fr := cfg.newFrontier(h, comp)
	rl := cfg.roundLogger(h, &stats.PerRound)
	de := cfg.newDirEngine(h, comp, false)
	eng := cfg.newEngine(h, fr, comp)
	if de != nil {
		eng = nil // direction-capable phases run BSP rounds (see CCSV)
	}
	comp.PinMirrors()
	if fr != nil {
		fr.ActivateAll()
		fr.Advance()
	}
	for {
		stats.HookRounds++
		comp.ResetUpdated()
		if cfg.requestActive() {
			requestLocalProxies(h, comp)
		}
		local := h.HP.Local
		mode := runtime.ModeBSP
		var drain runtime.DrainStats
		if fr != nil {
			mode = eng.roundMode(fr.Count())
		}
		dir := de.roundDirection(fr)
		switch {
		case dir == runtime.DirPull:
			// Bottom-up label propagation: each master min-folds its
			// in-neighbors' round-start labels (the exact transpose of the
			// push body on these symmetrized graphs), with no reduce
			// collective — per-round label states, and therefore round
			// counts, are identical to push.
			h.TimeCompute(func() {
				pullMinRound(h, de.ph, nil)
			})
		case mode == runtime.ModeAsync:
			// Every push target is a local proxy (mirrors are pinned), so
			// the whole label cascade applies in place: a drain runs each
			// host's labels to their local fixpoint in one round.
			ah := eng.ah
			h.TimeCompute(func() {
				drain = h.AsyncDrain(fr, eng.ccAsyncOpts(), func(tid int, src graph.NodeID, cx *runtime.AsyncCtx) {
					label, ok := ah.Load(h.HP.GlobalID(src))
					if !ok {
						return
					}
					lo, hi := local.EdgeRange(src)
					for e := lo; e < hi; e++ {
						dstGID := h.HP.GlobalID(local.Dst(e))
						if l, applied, changed := ah.ReduceAsync(tid, dstGID, label); applied && changed {
							cx.Enqueue(l)
						}
					}
				})
			})
			comp.ReduceSync()
		default:
			body := func(tid int, src graph.NodeID) {
				label := comp.Read(h.HP.GlobalID(src))
				lo, hi := local.EdgeRange(src)
				for e := lo; e < hi; e++ {
					dstGID := h.HP.GlobalID(local.Dst(e))
					if label < comp.Read(dstGID) {
						comp.Reduce(tid, dstGID, label)
					}
				}
			}
			h.TimeCompute(func() {
				if fr != nil {
					h.ParForActive(fr, body)
				} else {
					h.ParForNodes(body)
				}
			})
			comp.ReduceSync()
		}
		// A pull round never staged a reduce — each push arm synced its own
		// above — so every direction ends the round with the broadcast.
		comp.BroadcastSync()
		active := h.HP.NumLocal()
		if fr != nil {
			active = fr.Count()
			eng.observe(mode, active, fr.Size(), drain)
			fr.Advance()
		}
		rl.record(active, true, mode, dir)
		if !comp.IsUpdated() || stats.HookRounds >= cfg.maxRounds() {
			break
		}
	}
	comp.UnpinMirrors()
	stats.OuterRounds = 1
	CollectNodeValues(h, comp, out)
	cfg.recordStats(comp)
	return stats
}

// CCSCLP runs shortcutting label propagation (Stergiou et al.): label
// propagation rounds interleaved with pointer-jumping shortcut rounds.
// Propagation is adjacent-vertex; the shortcut is trans-vertex. Each outer
// round runs exactly one full propagation pass, so only the shortcut
// phases are frontier-driven.
func CCSCLP(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	comp := cfg.newNodeMap(h, npm.MinNodeID())
	initOwn(h, comp)

	var stats CCStats
	fr := cfg.newFrontier(h, comp)
	rl := cfg.roundLogger(h, &stats.PerRound)
	eng := cfg.newEngine(h, fr, comp)
	for {
		stats.OuterRounds++
		var workDone runtime.BoolReducer
		workDone.Set(false)

		// One label-propagation pass.
		comp.PinMirrors()
		comp.ResetUpdated()
		if cfg.requestActive() {
			requestLocalProxies(h, comp)
		}
		h.TimeCompute(func() {
			local := h.HP.Local
			h.ParForNodes(func(tid int, src graph.NodeID) {
				label := comp.Read(h.HP.GlobalID(src))
				lo, hi := local.EdgeRange(src)
				for e := lo; e < hi; e++ {
					dstGID := h.HP.GlobalID(local.Dst(e))
					if label < comp.Read(dstGID) {
						workDone.Reduce(true)
						comp.Reduce(tid, dstGID, label)
					}
				}
			})
		})
		comp.ReduceSync()
		comp.BroadcastSync()
		if comp.IsUpdated() {
			workDone.Reduce(true)
		}
		comp.UnpinMirrors()
		stats.HookRounds++
		rl.record(h.HP.NumLocal(), true, runtime.ModeBSP, runtime.DirPush)

		// Shortcut to collapse label chains.
		stats.ShortcutRounds += ccShortcut(h, cfg, comp, fr, nil, rl, eng)

		workDone.Sync(h.EP)
		if !workDone.Read() || stats.OuterRounds >= cfg.maxRounds() {
			break
		}
	}
	CollectNodeValues(h, comp, out)
	cfg.recordStats(comp)
	return stats
}
