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
// Every round of the three — CC-SV's hook, CC-LP's propagation, CC-SCLP's
// propagation pass, the pointer-jumping shortcut of CC-SV and CC-SCLP
// (and MSF), and the outer rounds around them — runs through the runtime's
// round driver, runtime.Loop, which sequences it.

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
	rl  *runtime.RoundLog
}

// newLabelRun builds a min-label map holding every node's own ID, and the
// frontier and round log over it.
func (c Config) newLabelRun(h *runtime.Host, stats *CCStats) *labelRun {
	m := c.newNodeMap(h, npm.MinNodeID())
	initOwn(h, m)
	return &labelRun{h: h, cfg: c, m: m, fr: c.newFrontier(h, m),
		rl: c.roundLog(h, &stats.PerRound)}
}

// finish collects this host's master labels into out.
func (r *labelRun) finish(out []graph.NodeID) {
	CollectNodeValues(r.h, r.m, out)
	r.cfg.recordStats(r.m)
}

// loop returns the label-round loop on the pinned map: each round push's
// body runs over fr (every local node when fr is nil), then ReduceSync
// and the broadcast, so each round starts on fresh mirrors; the loop
// stops when a round changes no label or after limit rounds. push comes
// as a Phase literal holding only the body, which marks the body an
// operator for kimbapvet; loop adds the reads and syncs.
func (r *labelRun) loop(fr *runtime.Frontier, limit int, push runtime.Phase) runtime.Loop {
	m := syncs(r.m)
	push.Reads, push.Reduce, push.Broadcast = r.cfg.reads(r.m), m, m
	return runtime.Loop{Host: r.h, Frontier: fr, Phases: []runtime.Phase{push},
		Quiesce: r.m, MaxRounds: limit, Log: r.rl, Hook: true}
}

// outer returns the outer-round loop of CC-SV and CC-SCLP: round runs the
// hook (or propagation) and shortcut phases and raises workDone when a
// hook did work; the loop stops after a round in which none did.
func (c Config) outer(h *runtime.Host, workDone *runtime.BoolReducer, round func()) runtime.Loop {
	return runtime.Loop{Host: h, MaxRounds: c.maxRounds(),
		Phases: []runtime.Phase{{Before: func() {
			workDone.Set(false)
			round()
		}}},
		Done: func() bool {
			workDone.Sync(h.EP)
			return !workDone.Read()
		}}
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
	hook := r.hookLoop(&workDone)
	var quiet bool
	outer := cfg.outer(h, &workDone, func() {
		stats.HookRounds += r.hook(&hook, seed)
		var n int
		n, quiet = sc.run(acc)
		stats.ShortcutRounds += n
		seed = acc
	})
	rounds, done := outer.Run()
	stats.OuterRounds = rounds
	// Converged: no hook did work and the shortcut ran to quiescence.
	stats.Converged = done && quiet
	r.finish(out)
	return stats
}

// hookLoop returns the hook phase's loop, which applies the hook operator
// until quiescence and raises workDone on every effective hook: for every
// edge src->dst with parent(src) > parent(dst), min-reduce parent(parent(src))
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
func (r *labelRun) hookLoop(workDone *runtime.BoolReducer) runtime.Loop {
	parent, fr := r.m, r.fr
	local, lv := r.h.HP.Local, npm.Local(parent)
	return r.loop(fr, r.cfg.maxRounds(), runtime.Phase{Body: func(tid int, src graph.NodeID) {
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
	}})
}

// hook runs one hook phase of loop (hookLoop's) from seed and returns its
// rounds.
func (r *labelRun) hook(loop *runtime.Loop, seed *par.Bitset) int {
	parent, fr := r.m, r.fr
	// Reset before pinning: PinMirrors refreshes mirrors from masters and
	// activates every mirror whose value changed since the last unpin, and
	// those activations must land in the set the seed joins.
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
	}
	rounds, _ := loop.Run()
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
	pv     *npm.LocalView[graph.NodeID]
	fr     *runtime.Frontier
	loop   runtime.Loop
	lo, hi graph.NodeID // this host's master range (global IDs)
	// anc and next are compress's Jacobi buffers, indexed by local master
	// ID: each iteration reads anc and writes next, then they swap.
	anc, next []graph.NodeID
	moved     atomic.Bool // some link moved in compress's current iteration
	acc       *par.Bitset // run's accumulator (nil: none)
}

func (c Config) newShortcut(h *runtime.Host, parent npm.Map[graph.NodeID],
	fr *runtime.Frontier, rl *runtime.RoundLog) *shortcut {

	lo, hi := h.HP.MasterRangeGlobal()
	s := &shortcut{
		pv: npm.Local(parent), fr: fr, lo: lo, hi: hi,
		anc: make([]graph.NodeID, h.HP.NumMasters), next: make([]graph.NodeID, h.HP.NumMasters),
	}
	// Request phase generated by the operator split: request the parent
	// of the farthest local ancestor.
	request := func(_ int, local graph.NodeID) {
		parent.Request(s.anc[local])
	}
	jump := func(tid int, local graph.NodeID) {
		if gp := parent.Read(s.anc[local]); gp != s.pv.Value(local) {
			s.pv.Reduce(tid, local, gp)
		}
	}
	p := syncs(parent)
	s.loop = runtime.Loop{Host: h, Frontier: fr, Quiesce: parent, MaxRounds: c.maxRounds(), Log: rl,
		Phases: []runtime.Phase{
			{Reads: c.reads(parent), Before: func() { h.TimeCompute(s.compress) },
				Visit: runtime.ActiveMasters, Body: request, Request: p},
			{Visit: runtime.ActiveMasters, Body: jump, Reduce: p},
		},
		Done: func() bool {
			if s.acc != nil {
				fr.OrCurrentInto(s.acc)
			}
			return !parent.IsUpdated()
		}}
	return s
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
	if s.fr != nil {
		// Reset discards stale activations (e.g. mirror bits from a prior
		// broadcast); shortcut iterates masters only.
		s.fr.Reset()
		s.fr.ActivateRange(0, len(s.anc))
	}
	s.acc = acc
	return s.loop.Run()
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
	s.loop.ParFor(runtime.ActiveMasters, func(_ int, l graph.NodeID) {
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
		s.loop.ParFor(runtime.ActiveMasters, func(_ int, l graph.NodeID) {
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
	}
	loop := r.loop(r.fr, cfg.maxRounds(), runtime.Phase{Body: func(tid int, src graph.NodeID) {
		label := lv.Value(src)
		lo, hi := local.EdgeRange(src)
		for e := lo; e < hi; e++ {
			if dst := local.Dst(e); label < lv.Value(dst) {
				lv.Reduce(tid, dst, label)
			}
		}
	}})
	stats.HookRounds, stats.Converged = loop.Run()
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
	var workDone runtime.BoolReducer
	// The propagation pass runs without the frontier: it visits every
	// node.
	prop := r.loop(nil, 1, runtime.Phase{Body: func(tid int, src graph.NodeID) {
		label := lv.Value(src)
		lo, hi := local.EdgeRange(src)
		for e := lo; e < hi; e++ {
			if dst := local.Dst(e); label < lv.Value(dst) {
				workDone.Reduce(true)
				lv.Reduce(tid, dst, label)
			}
		}
	}})
	var quiet bool
	outer := cfg.outer(h, &workDone, func() {
		comp.PinMirrors()
		n, _ := prop.Run()
		stats.HookRounds += n
		comp.UnpinMirrors()

		// Shortcut to collapse label chains.
		n, quiet = sc.run(nil)
		stats.ShortcutRounds += n
	})
	rounds, done := outer.Run()
	stats.OuterRounds = rounds
	stats.Converged = done && quiet
	r.finish(out)
	return stats
}
