package galois

import (
	"math"
	"sync/atomic"

	"kimbap/internal/graph"
)

// Shared-memory Louvain and Leiden. Community totals live in plain arrays
// updated with atomic CAS loops — the in-place reduction style Table 3
// attributes to Galois. For Louvain the contention is modest; for Leiden
// the per-round subcluster property updates contend heavily on hub nodes,
// which is why the paper's Galois Leiden times out on road-europe while
// Kimbap's conflict-free reductions do not.

// CDResult mirrors the distributed result type.
type CDResult struct {
	Assignment []graph.NodeID
	Modularity float64
	Levels     int
	Rounds     int
}

// Louvain runs shared-memory multi-level Louvain.
func Louvain(g *graph.Graph, threads int) CDResult {
	return community(g, threads, false)
}

// Leiden runs shared-memory multi-level Leiden.
func Leiden(g *graph.Graph, threads int) CDResult {
	return community(g, threads, true)
}

func community(g *graph.Graph, threads int, leiden bool) CDResult {
	var res CDResult
	proj := make([]graph.NodeID, g.NumNodes())
	for i := range proj {
		proj[i] = graph.NodeID(i)
	}
	final := make([]graph.NodeID, g.NumNodes())
	copy(final, proj)
	cur := g

	const maxLevels = 10
	for level := 0; level < maxLevels; level++ {
		comm, rounds, moved := refine(cur, threads)
		res.Rounds += rounds
		res.Levels++

		sub := comm
		if leiden {
			sub = refineSub(cur, threads, comm)
		}
		for i := range final {
			final[i] = comm[proj[i]]
		}
		if moved == 0 && level > 0 {
			break
		}
		coarse, remap := graph.Contract(cur, sub)
		for i := range proj {
			proj[i] = remap[sub[proj[i]]]
		}
		if coarse.NumNodes() == cur.NumNodes() || coarse.NumNodes() <= 1 {
			break
		}
		cur = coarse
	}
	res.Assignment = final
	res.Modularity = graph.Modularity(g, final)
	return res
}

// refine is the local-moving phase: asynchronous greedy moves with
// community totals maintained by atomic add/sub, Grappolo's singleton
// swap rule for convergence.
func refine(g *graph.Graph, threads int) (comm []graph.NodeID, rounds int, lastMoved int64) {
	n := g.NumNodes()
	twoM := g.TotalWeight()
	// Communities are read by neighbors while being moved: atomics make
	// the asynchronous propagation well-defined.
	commA := make([]atomic.Uint32, n)
	wdeg := make([]float64, n)
	for i := 0; i < n; i++ {
		commA[i].Store(uint32(i))
		for _, w := range g.EdgeWeights(graph.NodeID(i)) {
			wdeg[i] += w
		}
		if !g.Weighted() {
			wdeg[i] = float64(g.Degree(graph.NodeID(i)))
		}
	}
	comm = make([]graph.NodeID, n)
	if twoM == 0 {
		for i := range comm {
			comm[i] = graph.NodeID(i)
		}
		return comm, 0, 0
	}
	ctot := make([]atomic.Uint64, n)
	csize := make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		ctot[i].Store(math.Float64bits(wdeg[i]))
		csize[i].Store(1)
	}

	accs := graph.NewAccumulators(max(threads, 1), n) // one per parFor worker
	const maxIters = 32
	var totalMoved int64
	for rounds = 0; rounds < maxIters; rounds++ {
		var moved atomic.Int64
		parFor(threads, n, func(w, i int) {
			a := graph.NodeID(commA[i].Load())
			kn := wdeg[i]
			if kn == 0 {
				return
			}
			links := accs[w]
			lo, hi := g.EdgeRange(graph.NodeID(i))
			for e := lo; e < hi; e++ {
				d := g.Dst(e)
				if int(d) == i {
					continue
				}
				links.Add(graph.NodeID(commA[d].Load()), g.Weight(e))
			}
			aTot := math.Float64frombits(ctot[a].Load())
			base := links.Get(a) - (aTot-kn)*kn/twoM
			best, bestGain := a, base
			for j, c := range links.Keys() {
				if c == a {
					continue
				}
				gain := links.Vals()[j] - math.Float64frombits(ctot[c].Load())*kn/twoM
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
					best, bestGain = c, gain
				}
			}
			links.Reset()
			if best != a && csize[a].Load() == 1 && csize[best].Load() == 1 && best > a {
				best = a
			}
			if best != a {
				// In-place atomic updates: the contended path.
				atomicAddFloat(&ctot[a], -kn)
				atomicAddFloat(&ctot[best], kn)
				csize[a].Add(-1)
				csize[best].Add(1)
				commA[i].Store(uint32(best))
				moved.Add(1)
			}
		})
		totalMoved += moved.Load()
		lastMoved = moved.Load()
		if moved.Load() == 0 {
			rounds++
			break
		}
	}
	for i := range comm {
		comm[i] = graph.NodeID(commA[i].Load())
	}
	return comm, rounds, totalMoved
}

// refineSub is the Leiden refinement: singleton nodes merge into
// subcommunities within their community, with heavy atomic traffic on the
// shared subcluster totals.
func refineSub(g *graph.Graph, threads int, comm []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	twoM := g.TotalWeight()
	if twoM == 0 {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(i)
		}
		return out
	}
	subA := make([]atomic.Uint32, n)
	wdeg := make([]float64, n)
	subtot := make([]atomic.Uint64, n)
	subsize := make([]atomic.Int64, n)
	ctot := make([]atomic.Uint64, n)
	for i := 0; i < n; i++ {
		subA[i].Store(uint32(i))
		for _, w := range g.EdgeWeights(graph.NodeID(i)) {
			wdeg[i] += w
		}
		if !g.Weighted() {
			wdeg[i] = float64(g.Degree(graph.NodeID(i)))
		}
		subtot[i].Store(math.Float64bits(wdeg[i]))
		subsize[i].Store(1)
		atomicAddFloat(&ctot[comm[i]], wdeg[i])
	}

	accs := graph.NewAccumulators(max(threads, 1), n) // one per parFor worker
	const refineRounds = 4
	for round := 0; round < refineRounds; round++ {
		var moved atomic.Int64
		parFor(threads, n, func(w, i int) {
			if graph.NodeID(subA[i].Load()) != graph.NodeID(i) || subsize[i].Load() != 1 {
				return
			}
			c := comm[i]
			kn := wdeg[i]
			if kn == 0 {
				return
			}
			intoC := 0.0
			links := accs[w]
			defer links.Reset()
			lo, hi := g.EdgeRange(graph.NodeID(i))
			for e := lo; e < hi; e++ {
				d := g.Dst(e)
				if int(d) == i || comm[d] != c {
					continue
				}
				intoC += g.Weight(e)
				links.Add(graph.NodeID(subA[d].Load()), g.Weight(e))
			}
			if intoC < kn*(math.Float64frombits(ctot[c].Load())-kn)/twoM {
				return
			}
			best, bestGain := graph.NodeID(i), 0.0
			for j, t := range links.Keys() {
				if t == graph.NodeID(i) {
					continue
				}
				gain := links.Vals()[j] - math.Float64frombits(subtot[t].Load())*kn/twoM
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && gain > 0 && t < best) {
					best, bestGain = t, gain
				}
			}
			if best != graph.NodeID(i) {
				atomicAddFloat(&subtot[graph.NodeID(i)], -kn)
				atomicAddFloat(&subtot[best], kn)
				subsize[i].Add(-1)
				subsize[best].Add(1)
				subA[i].Store(uint32(best))
				moved.Add(1)
			}
		})
		if moved.Load() == 0 {
			break
		}
	}
	sub := make([]graph.NodeID, n)
	for i := range sub {
		sub[i] = graph.NodeID(subA[i].Load())
	}
	return sub
}
