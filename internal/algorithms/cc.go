package algorithms

import (
	"sync/atomic"

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
// O(active) instead of O(|V|). The unexported Config.dense restores the
// dense loops for the equivalence tests; the labels are identical either
// way (the min-label fixpoint does not depend on evaluation order).
//
// Every label round of the three — CC-SV's hook, CC-LP's propagation and
// CC-SCLP's propagation pass — runs bsp through one loop, labelRun.rounds,
// which sequences the round; the pointer-jumping shortcut of CC-SV and
// CC-SCLP (and MSF) is shortcut.run.

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
		endRound(r.rl, fr, true, h.HP.NumLocal())
		if quiet = !m.IsUpdated(); quiet || n >= limit {
			return n, quiet
		}
	}
}

// endRound closes a round after its last sync: it advances the frontier
// and logs the round. dense is the round's visit count when there is no
// frontier.
func endRound(rl *roundLogger, fr *runtime.Frontier, hook bool, dense int) {
	active := dense
	if fr != nil {
		active = fr.Count()
		fr.Advance()
	}
	rl.record(active, hook)
}

// CCSV runs Shiloach-Vishkin connected components on one host (SPMD).
// It is the hand-written equivalent of the compiler output in Figure 8.
// After it returns, out (length = global node count) holds this host's
// master labels.
func CCSV(h *runtime.Host, cfg Config, out []graph.NodeID) CCStats {
	var stats CCStats
	r := cfg.newLabelRun(h, &stats)
	sc := cfg.newShortcut(h, r.m, r.fr, r.rl)
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
		n, quiet := sc.run(acc)
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

// shortcut is the pointer-jumping phase of CC-SV, CC-SCLP and MSF over
// one parent map: parent(n) <- parent(parent(n)) until quiescence. The
// grandparent read targets an arbitrary node, so each round requests it
// explicitly (the Figure 8 generated code); the compiler's master-elision
// restricts iteration to master nodes. fr is the frontier (nil: every
// master every round) and rl the round log (nil: off). One shortcut serves
// every phase of its algorithm, so the compression arrays are allocated
// once.
//
// Each round first compresses the parent chains that stay inside this
// host's masters (compress, DESIGN.md §12): every master learns the
// farthest node its chain reaches through local masters — a root, or the
// first ancestor this host does not own. The request pass then asks for
// that node's parent and the jump pass moves the master past it, so one
// round covers a whole local chain plus one cross-host hop, where plain
// pointer jumping needs a round per halving of the chain. Each master
// still writes only its own parent, which keeps MSF's Overwrite map
// correct.
type shortcut struct {
	h      *runtime.Host
	cfg    Config
	parent npm.Map[graph.NodeID]
	pv     *npm.LocalView[graph.NodeID]
	fr     *runtime.Frontier
	rl     *roundLogger
	lo, hi graph.NodeID // this host's master range (global IDs)
	// anc and next are compress's Jacobi buffers, indexed by local master
	// ID: each iteration reads anc and writes next, then they swap.
	anc, next []graph.NodeID
	moved     atomic.Bool // some link moved in compress's current iteration
}

func (c Config) newShortcut(h *runtime.Host, parent npm.Map[graph.NodeID],
	fr *runtime.Frontier, rl *roundLogger) *shortcut {

	lo, hi := h.HP.MasterRangeGlobal()
	return &shortcut{
		h: h, cfg: c, parent: parent, pv: npm.Local(parent), fr: fr, rl: rl, lo: lo, hi: hi,
		anc: make([]graph.NodeID, h.HP.NumMasters), next: make([]graph.NodeID, h.HP.NumMasters),
	}
}

// forMasters runs fn over the masters this round visits.
func (s *shortcut) forMasters(fn func(tid int, local graph.NodeID)) {
	if s.fr != nil {
		s.h.ParForActive(s.fr, fn)
	} else {
		s.h.ParForMasters(fn)
	}
}

// run runs the phase and returns the rounds run and whether the last
// changed no parent (false: MaxRounds cut it off). When acc is set, each
// round's changed masters are ored into it, seeding the next hook phase
// (see CCSV).
//
// The frontier starts with every master (the preceding phase changed
// parents untracked) and then narrows to masters whose parent changed:
// once a master points at a root its shortcut stays ineffective — roots
// keep pointing at themselves within the phase — until its own parent
// changes again, which re-activates it.
func (s *shortcut) run(acc *par.Bitset) (rounds int, quiet bool) {
	h, parent, fr := s.h, s.parent, s.fr
	if fr != nil {
		// Reset discards stale activations (e.g. mirror bits from a prior
		// broadcast); shortcut iterates masters only.
		fr.Reset()
		fr.ActivateRange(0, h.HP.NumMasters)
		fr.Advance()
	}
	// Request phase generated by the operator split: request the parent
	// of the farthest local ancestor.
	reqBody := func(_ int, local graph.NodeID) {
		parent.Request(s.anc[local])
	}
	body := func(tid int, local graph.NodeID) {
		if gp := parent.Read(s.anc[local]); gp != s.pv.Value(local) {
			s.pv.Reduce(tid, local, gp)
		}
	}
	for rounds = 1; ; rounds++ {
		parent.ResetUpdated()
		if s.cfg.requestActive() {
			requestLocalProxies(h, parent)
		}
		h.TimeCompute(func() {
			s.compress()
			s.forMasters(reqBody)
		})
		parent.RequestSync()
		h.TimeCompute(func() { s.forMasters(body) })
		parent.ReduceSync()
		endRound(s.rl, fr, false, h.HP.NumMasters)
		if acc != nil {
			fr.OrCurrentInto(acc)
		}
		if quiet = !parent.IsUpdated(); quiet || rounds >= s.cfg.maxRounds() {
			return rounds, quiet
		}
	}
}

// compress sets anc[l], for every master l this round visits, to the
// farthest node l's parent chain reaches through this host's masters: the
// first ancestor that is a root or a node this host does not own. It sends
// nothing. Pointer doubling runs Jacobi-style — each iteration reads anc
// and writes next — until no link moves, so the result, and with it the
// round's jumps, is the same at every thread count.
//
// Under a frontier, a master outside the current set did not move last
// round, so it points at a root (the run invariant), and its parent is
// its farthest local ancestor; anc holds nothing for it this round.
func (s *shortcut) compress() {
	fr, pv := s.fr, s.pv
	// The first doubling step reads the map itself: parent(parent(l)) when
	// the parent is a local master.
	s.moved.Store(false)
	s.forMasters(func(_ int, l graph.NodeID) {
		p := pv.Value(l)
		a := p
		if p >= s.lo && p < s.hi {
			a = pv.Value(p - s.lo)
		}
		s.anc[l] = a
		if a != p && !s.moved.Load() {
			s.moved.Store(true)
		}
	})
	// Every master is visited in a phase's first round, so no lookup needs
	// the frontier test.
	all := fr == nil || fr.Count() == len(s.anc)
	for s.moved.Load() {
		s.moved.Store(false)
		anc, next := s.anc, s.next
		s.forMasters(func(_ int, l graph.NodeID) {
			a := anc[l]
			if a >= s.lo && a < s.hi {
				if m := a - s.lo; all || fr.IsActive(int(m)) {
					a = anc[m]
				} else {
					a = pv.Value(m)
				}
			}
			next[l] = a
			if a != anc[l] && !s.moved.Load() {
				s.moved.Store(true)
			}
		})
		s.anc, s.next = next, anc
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
	sc := cfg.newShortcut(h, comp, r.fr, r.rl)
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
		n, quiet := sc.run(nil)
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
