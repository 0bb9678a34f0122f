package algorithms

import (
	"fmt"
	"time"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Deterministic Louvain community detection (Blondel et al., Table 2:
// adjacent + trans-vertex). Each level runs synchronous local-moving
// rounds: every node evaluates the modularity gain of joining each
// neighbor's community — reading the neighbor's community (adjacent) and
// the community totals stored on representative nodes (trans-vertex) — and
// the level ends when modularity stops improving. Communities are then
// contracted into supernodes and the process repeats on the coarse graph.
//
// As in the paper, a cluster's aggregate property (its total degree
// weight) is stored in its representative node's property, so reading and
// reducing it are trans-vertex operations on dynamically computed node
// IDs.
//
// Substitution note: refinement — the dominant cost and the part whose
// reductions the §6.4 ablation measures — is fully distributed; graph
// contraction between levels is performed centrally by the driver, which
// also builds a fresh partition per level (the paper excludes partitioning
// time from all measurements, and so do the benchmarks here).

// CDOptions tune the community-detection algorithms.
type CDOptions struct {
	// MaxLevels caps coarsening levels (default 10).
	MaxLevels int
	// MaxIters caps local-moving rounds per level (default 32).
	MaxIters int
	// MinDelta is the modularity-gain threshold that ends a level
	// (default 1e-6).
	MinDelta float64
	// EarlyTermination enables Vite's heuristic: a node that stayed in
	// its community for 4 consecutive rounds is skipped with 75%
	// (deterministic pseudo-random) probability.
	EarlyTermination bool
	// Gamma is Leiden's resolution parameter: higher values demand
	// stronger connectivity before a node merges into a subcommunity,
	// yielding finer refinement (default 1.0; unused by Louvain).
	Gamma float64
}

func (o CDOptions) withDefaults() CDOptions {
	if o.MaxLevels == 0 {
		o.MaxLevels = 10
	}
	if o.MaxIters == 0 {
		o.MaxIters = 32
	}
	if o.MinDelta == 0 {
		o.MinDelta = 1e-6
	}
	if o.Gamma == 0 {
		o.Gamma = 1.0
	}
	return o
}

// CDResult is the outcome of Louvain or Leiden.
type CDResult struct {
	// Assignment maps every original node to its final community label
	// (a representative node ID of the final coarse level).
	Assignment []graph.NodeID
	// Modularity of the final assignment on the original graph.
	Modularity float64
	Levels     int
	Rounds     int // total refinement rounds across levels
	// Converged reports that the level loop stopped on its own: a level
	// moved no node, or contraction left the graph unchanged. False when
	// MaxLevels ended the loop while the last level still moved nodes.
	Converged bool
	// Compute and Comm sum the per-host phase timers across all levels;
	// Request/Reduce/Broadcast split Comm by sync phase.
	Compute, Comm              time.Duration
	Request, Reduce, Broadcast time.Duration
}

// Louvain runs the full multi-level algorithm, creating one simulated
// cluster per level (partitioning time is excluded from the timers, as in
// the paper). LV and LD require an edge-cut partition (Vite supports only
// edge-cuts); the policy is forced to OEC.
func Louvain(g *graph.Graph, ccfg runtime.Config, acfg Config, opts CDOptions) (CDResult, error) {
	return multilevel(g, ccfg, acfg, opts.withDefaults(), false)
}

func multilevel(g *graph.Graph, ccfg runtime.Config, acfg Config,
	opts CDOptions, leiden bool) (CDResult, error) {

	ccfg.Policy = partition.OEC
	var res CDResult
	// proj[i] = current coarse-level node holding original node i.
	proj := make([]graph.NodeID, g.NumNodes())
	for i := range proj {
		proj[i] = graph.NodeID(i)
	}
	// final[i] = community label of original node i after the latest level.
	final := make([]graph.NodeID, g.NumNodes())
	copy(final, proj)
	cur := g
	// initComm seeds each level's starting partition. Louvain always
	// starts levels from singletons; Leiden contracts on subcommunities
	// and starts the next level from the aggregated communities
	// (Traag et al.), which initComm carries across the contraction.
	var initComm []graph.NodeID

	for level := 0; level < opts.MaxLevels; level++ {
		cluster, err := runtime.NewCluster(cur, ccfg)
		if err != nil {
			return res, fmt.Errorf("louvain: level %d: %w", level, err)
		}
		// assignComm holds the level's community labels (the reported
		// clustering); assignSub the labels contraction groups by. For
		// Louvain they coincide; Leiden contracts on the finer
		// subcommunities while reporting communities (Traag et al.).
		assignComm := make([]graph.NodeID, cur.NumNodes())
		assignSub := assignComm
		if leiden {
			assignSub = make([]graph.NodeID, cur.NumNodes())
		}
		rounds := make([]int, ccfg.NumHosts)
		moved := make([]int64, ccfg.NumHosts)
		cluster.Run(func(h *runtime.Host) {
			// The move phases' k_{n→c} tables, one per worker thread
			// (indexed by the tid ParForMasters passes), keyed by global
			// node ID. Built once per level, so a round allocates nothing
			// per master.
			accs := graph.NewAccumulators(h.Threads, h.HP.NumGlobalNodes())
			r, m := refineLevel(h, acfg, opts, accs, initComm, assignComm)
			rounds[h.Rank] = r
			moved[h.Rank] = m
			if leiden {
				leidenRefine(h, acfg, opts, accs, assignComm, assignSub)
			}
		})
		for _, h := range cluster.Hosts() {
			res.Compute += h.Timers.Compute
			res.Comm += h.Timers.Comm()
			res.Request += h.Timers.Request
			res.Reduce += h.Timers.Reduce
			res.Broadcast += h.Timers.Broadcast
		}
		cluster.Close()
		res.Levels++
		res.Rounds += rounds[0]

		for i := range final {
			final[i] = assignComm[proj[i]]
		}
		res.Converged = moved[0] == 0
		if (res.Converged && level > 0) || level == opts.MaxLevels-1 {
			break // converged, or no level left to use a contraction
		}
		coarse, remap := graph.Contract(cur, assignSub)
		if leiden {
			initComm = make([]graph.NodeID, coarse.NumNodes())
			for n := 0; n < cur.NumNodes(); n++ {
				initComm[remap[assignSub[n]]] = remap[assignSub[assignComm[n]]]
			}
		}
		for i := range proj {
			proj[i] = remap[assignSub[proj[i]]]
		}
		if coarse.NumNodes() == cur.NumNodes() || coarse.NumNodes() <= 1 {
			res.Converged = true
			break
		}
		cur = coarse
	}
	res.Assignment = final
	res.Modularity = graph.Modularity(g, final)
	return res, nil
}

// refineLevel runs the synchronous local-moving phase on one host (SPMD)
// and fills this host's master range of assign. accs holds one link
// accumulator per worker thread. initComm optionally seeds the
// starting partition (nil means singletons). Returns the number of rounds
// and the total nodes moved (global, identical on all hosts).
func refineLevel(h *runtime.Host, cfg Config, opts CDOptions, accs []*graph.Accumulator,
	initComm, assign []graph.NodeID) (rounds int, totalMoved int64) {

	local := h.HP.Local

	// Total directed edge weight (2m) is a level constant.
	localWeight := 0.0
	for n := 0; n < local.NumNodes(); n++ {
		lo, hi := local.EdgeRange(graph.NodeID(n))
		for e := lo; e < hi; e++ {
			localWeight += local.Weight(e)
		}
	}
	twoM := comm.AllReduceFloat64(h.EP, localWeight)
	if twoM == 0 {
		lo, hi := h.HP.MasterRangeGlobal()
		for g := lo; g < hi; g++ {
			assign[g] = g
		}
		return 0, 0
	}

	// Weighted degree per node (global sums; local degrees are partial
	// only under vertex cuts, but the sum reduction is correct for any
	// policy).
	wdeg := cfg.newFloatMap(h, npm.SumFloat64())
	h.ParForNodes(func(_ int, n graph.NodeID) { wdeg.Set(h.HP.GlobalID(n), 0) })
	wdeg.InitSync()
	h.TimeCompute(func() {
		h.ParForNodes(func(tid int, n graph.NodeID) {
			sum := 0.0
			lo, hi := local.EdgeRange(n)
			for e := lo; e < hi; e++ {
				sum += local.Weight(e)
			}
			if sum != 0 {
				wdeg.Reduce(tid, h.HP.GlobalID(n), sum)
			}
		})
	})
	wdeg.ReduceSync()
	wdeg.PinMirrors()

	// Community of each node: the seed partition if given, else itself.
	// Only the node's owner writes it, so Overwrite is race free.
	cm := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
	if initComm == nil {
		initOwn(h, cm)
	} else {
		h.ParForNodes(func(_ int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			cm.Set(gid, initComm[gid])
		})
		cm.InitSync()
	}
	cm.PinMirrors()
	// Both maps are pinned from here on, so every adjacent read below
	// indexes a local proxy by its host-local ID (DESIGN.md §18).
	cmv, wdv := npm.Local(cm), npm.Local(wdeg)

	// The modularity sweep's intra-community weight, one partial per
	// worker thread (indexed by the tid ParForNodes passes).
	intraPart := make([]paddedFloat64, h.Threads)

	// Vite early-termination state: consecutive rounds a master stayed put.
	var stable []uint8
	if opts.EarlyTermination {
		stable = make([]uint8, h.HP.NumMasters)
	}

	// Community totals and sizes, keyed by representative node. Every
	// round re-Sets them to 0 before reducing, so one pair of maps serves
	// the whole level.
	ctot := cfg.newFloatMap(h, npm.SumFloat64())
	csize := cfg.newFloatMap(h, npm.SumFloat64())

	prevQ := -1.0
	for rounds = 0; rounds < opts.MaxIters; rounds++ {
		if cfg.requestActive() {
			requestLocalProxies(h, cm)
			requestLocalProxies(h, wdeg)
		}

		h.ParForMasters(func(_ int, n graph.NodeID) {
			gid := h.HP.GlobalID(n)
			ctot.Set(gid, 0)
			csize.Set(gid, 0)
		})
		ctot.InitSync()
		csize.InitSync()
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				c := cmv.Value(n)
				csize.Reduce(tid, c, 1)
				k := wdv.Value(n)
				if k != 0 {
					ctot.Reduce(tid, c, k)
				}
			})
		})
		ctot.ReduceSync()
		csize.ReduceSync()

		// Round modularity: Q = intra/2m - sum(tot_c^2)/(2m)^2.
		var intra, totSq runtime.SumReducer
		// cm is not requested again: the round-start request fetched it
		// and nothing has reduced into it since.
		if cfg.requestActive() {
			requestLocalProxies(h, ctot)
		}
		h.TimeCompute(func() {
			clear(intraPart)
			h.ParForNodes(func(tid int, n graph.NodeID) {
				cn := cmv.Value(n)
				sum := intraPart[tid].v
				lo, hi := local.EdgeRange(n)
				for e := lo; e < hi; e++ {
					if cmv.Value(local.Dst(e)) == cn {
						sum += local.Weight(e)
					}
				}
				intraPart[tid].v = sum
			})
			// Fold in tid order: at one thread per host this is the plain
			// edge-order sum, bit for bit.
			sum := 0.0
			for _, p := range intraPart {
				sum += p.v
			}
			intra.Reduce(sum)
			h.ParForMasters(func(tid int, n graph.NodeID) {
				t := ctot.Read(h.HP.GlobalID(n))
				if t != 0 {
					totSq.Reduce(t * t)
				}
			})
		})
		intra.Sync(h.EP)
		totSq.Sync(h.EP)
		q := intra.Read()/twoM - totSq.Read()/(twoM*twoM)
		if q-prevQ < opts.MinDelta && rounds > 0 {
			break
		}
		prevQ = q

		// Request phase: each master needs the totals of its own and all
		// neighbor communities — dynamically computed node IDs. LV runs
		// on OEC, where a host's mirrors are exactly the destinations of
		// its masters' edges, so that ID set is the community of every
		// local proxy.
		h.TimeCompute(func() {
			h.ParForNodes(func(_ int, l graph.NodeID) {
				c := cmv.Value(l)
				ctot.Request(c)
				csize.Request(c)
			})
		})
		ctot.RequestSync()
		csize.RequestSync()

		// Move phase: greedy best community with deterministic
		// tie-breaking (highest gain, then smallest community ID; ties
		// with the current community keep the node put unless the
		// candidate ID is smaller, damping oscillation).
		var moved runtime.CountReducer
		h.TimeCompute(func() {
			h.ParForMasters(func(tid int, n graph.NodeID) {
				gid := h.HP.GlobalID(n)
				if opts.EarlyTermination && stable[n] >= 4 {
					// Skip with probability 3/4, deterministically.
					if (uint32(gid)*2654435769+uint32(rounds))&3 != 0 {
						return
					}
				}
				a := cmv.Value(n)
				kn := wdv.Value(n)
				if kn == 0 {
					return
				}
				// Accumulate k_{n->c} per neighbor community; candidates
				// are visited in first-touch (edge) order.
				links := accs[tid]
				lo, hi := local.EdgeRange(n)
				for e := lo; e < hi; e++ {
					dst := local.Dst(e)
					if dst == n {
						continue
					}
					links.Add(cmv.Value(dst), local.Weight(e))
				}
				base := links.Get(a) - (ctot.Read(a)-kn)*kn/twoM
				best, bestGain := a, base
				for i, c := range links.Keys() {
					if c == a {
						continue
					}
					gain := links.Vals()[i] - ctot.Read(c)*kn/twoM
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
						best, bestGain = c, gain
					}
				}
				links.Reset()
				if best != a && csize.Read(a) == 1 && csize.Read(best) == 1 && best > a {
					// Grappolo's swap-breaking rule: between two singleton
					// communities, only the move toward the smaller ID is
					// allowed, which makes synchronous rounds converge.
					best = a
				}
				if best != a {
					cm.Reduce(tid, gid, best)
					moved.Reduce(1)
					if opts.EarlyTermination {
						stable[n] = 0
					}
				} else if opts.EarlyTermination && stable[n] < 4 {
					stable[n]++
				}
			})
		})
		cm.ReduceSync()
		cm.BroadcastSync()
		moved.Sync(h.EP)
		totalMoved += moved.Read() // global count, identical on all hosts
		if moved.Read() == 0 {
			rounds++
			break
		}
	}

	cm.UnpinMirrors()
	wdeg.UnpinMirrors()
	CollectNodeValues(h, cm, assign)
	cfg.recordStats(cm)
	cfg.recordStats(wdeg)
	cfg.recordStats(ctot)
	cfg.recordStats(csize)
	return rounds, totalMoved
}

// paddedFloat64 is one thread's partial sum, alone on its cache line so
// the threads' partials do not false-share.
type paddedFloat64 struct {
	v float64
	_ [56]byte
}
