// Package galois reimplements the shared-memory execution strategy of
// Galois (Nguyen et al., SOSP 2013), the single-host system in the paper's
// Table 3. Everything runs in one address space: algorithms update node
// properties in place with atomic compare-and-swap loops and propagate
// asynchronously within a round, with no partitioning, proxies, or
// message passing.
//
// The paper's Table 3 findings that this package reproduces: async atomics
// make pointer-jumping algorithms (MSF, CC-SV) much faster than Kimbap's
// BSP execution on one host, while for Leiden the atomic updates to shared
// subcluster properties suffer thread conflicts that Kimbap's conflict-
// free reductions avoid.
package galois

import (
	"math"
	"sync"
	"sync/atomic"

	"kimbap/internal/graph"
)

// parFor runs fn(w, i) for i in [0,n) on `threads` workers, where w in
// [0, max(threads, 1)) is the index of the worker running i.
func parFor(threads, n int, fn func(w, i int)) {
	if threads <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	chunk := n/(threads*8) + 1
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				for i := lo; i < hi; i++ {
					fn(t, i)
				}
			}
		}()
	}
	wg.Wait()
}

func atomicMin32(a *atomic.Uint32, v uint32) bool {
	for {
		old := a.Load()
		if v >= old {
			return false
		}
		if a.CompareAndSwap(old, v) {
			return true
		}
	}
}

func atomicAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, nv) {
			return
		}
	}
}

// CCLP computes connected components with asynchronous min-label
// propagation: updates are visible immediately through atomics.
func CCLP(g *graph.Graph, threads int) []graph.NodeID {
	n := g.NumNodes()
	label := make([]atomic.Uint32, n)
	for i := range label {
		label[i].Store(uint32(i))
	}
	for {
		var changed atomic.Bool
		parFor(threads, n, func(_, i int) {
			v := label[i].Load()
			for _, d := range g.Neighbors(graph.NodeID(i)) {
				if atomicMin32(&label[d], v) {
					changed.Store(true)
				}
			}
		})
		if !changed.Load() {
			break
		}
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(label[i].Load())
	}
	return out
}

// CCSV computes connected components with asynchronous Shiloach-Vishkin:
// hook and shortcut phases over an atomically updated parent array.
func CCSV(g *graph.Graph, threads int) []graph.NodeID {
	n := g.NumNodes()
	parent := make([]atomic.Uint32, n)
	for i := range parent {
		parent[i].Store(uint32(i))
	}
	for {
		var changed atomic.Bool
		// Hook: min-reduce parent(parent(src)) by parent(dst).
		parFor(threads, n, func(_, i int) {
			p := parent[i].Load()
			for _, d := range g.Neighbors(graph.NodeID(i)) {
				dp := parent[d].Load()
				if p > dp {
					if atomicMin32(&parent[p], dp) {
						changed.Store(true)
					}
				}
			}
		})
		// Shortcut: full pointer jumping, immediately visible.
		parFor(threads, n, func(_, i int) {
			for {
				p := parent[i].Load()
				gp := parent[p].Load()
				if p == gp {
					break
				}
				if atomicMin32(&parent[i], gp) {
					changed.Store(true)
				}
			}
		})
		if !changed.Load() {
			break
		}
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(parent[i].Load())
	}
	return out
}

// MIS computes a maximal independent set with the same priority rule as
// the distributed implementation (graph.MISPriority), applied
// asynchronously; it selects the same set.
func MIS(g *graph.Graph, threads int) []bool {
	n := g.NumNodes()
	prio := make([]uint64, n)
	for i := range prio {
		prio[i] = graph.MISPriority(uint64(g.Degree(graph.NodeID(i))), uint64(i), uint64(n))
	}
	const (
		undecided = 0
		out       = 1
		in        = 2
	)
	state := make([]atomic.Uint32, n)
	for {
		var remaining atomic.Int64
		parFor(threads, n, func(_, i int) {
			if state[i].Load() != undecided {
				return
			}
			wins := true
			for _, d := range g.Neighbors(graph.NodeID(i)) {
				if int(d) == i {
					continue
				}
				ds := state[d].Load()
				if ds == in || (ds == undecided && prio[d] < prio[i]) {
					wins = false
					break
				}
			}
			if wins {
				state[i].Store(in)
				for _, d := range g.Neighbors(graph.NodeID(i)) {
					if int(d) != i {
						state[d].CompareAndSwap(undecided, out)
					}
				}
			} else {
				remaining.Add(1)
			}
		})
		if remaining.Load() == 0 {
			break
		}
	}
	set := make([]bool, n)
	for i := range set {
		set[i] = state[i].Load() == in
	}
	return set
}

// MSF computes a minimum spanning forest with lock-free Boruvka: candidate
// edges are CAS-installed per component root, merges update an atomic
// parent array, and pointer jumping is immediate.
func MSF(g *graph.Graph, threads int) (weight float64, labels []graph.NodeID) {
	n := g.NumNodes()
	parent := make([]atomic.Uint32, n)
	for i := range parent {
		parent[i].Store(uint32(i))
	}
	find := func(x uint32) uint32 {
		for {
			p := parent[x].Load()
			if p == x {
				return x
			}
			gp := parent[p].Load()
			if p != gp {
				parent[x].CompareAndSwap(p, gp) // path compression
			}
			x = p
		}
	}

	type cand struct {
		w    float64
		a, b graph.NodeID
	}
	less := func(x, y cand) bool {
		if x.w != y.w {
			return x.w < y.w
		}
		if x.a != y.a {
			return x.a < y.a
		}
		return x.b < y.b
	}
	candidates := make([]atomic.Pointer[cand], n)

	var total atomic.Uint64
	for {
		for i := range candidates {
			candidates[i].Store(nil)
		}
		// Select the minimum outgoing edge per component.
		parFor(threads, n, func(_, i int) {
			ri := find(uint32(i))
			lo, hi := g.EdgeRange(graph.NodeID(i))
			for e := lo; e < hi; e++ {
				d := g.Dst(e)
				rd := find(uint32(d))
				if ri == rd {
					continue
				}
				c := cand{w: g.Weight(e),
					a: min(graph.NodeID(i), d), b: max(graph.NodeID(i), d)}
				for {
					cur := candidates[ri].Load()
					if cur != nil && !less(c, *cur) {
						break
					}
					if candidates[ri].CompareAndSwap(cur, &c) {
						break
					}
				}
			}
		})
		// Merge: each root attaches to the other endpoint's root; the
		// smaller side of a mutual pick stays put. Roots are snapshotted
		// first so concurrent attaches cannot produce cycles (the
		// acyclicity argument needs all merges to reference start-of-
		// round components).
		root := make([]uint32, n)
		parFor(threads, n, func(_, i int) { root[i] = find(uint32(i)) })
		var merged atomic.Bool
		parFor(threads, n, func(_, i int) {
			r := uint32(i)
			if root[i] != r {
				return
			}
			cp := candidates[r].Load()
			if cp == nil {
				return
			}
			ra, rb := root[cp.a], root[cp.b]
			other := ra
			if ra == r {
				other = rb
			}
			if other == r {
				return
			}
			oc := candidates[other].Load()
			if oc != nil && *oc == *cp && r < other {
				return
			}
			parent[r].Store(other)
			merged.Store(true)
			atomicAddFloat(&total, cp.w)
		})
		if !merged.Load() {
			break
		}
	}

	labels = make([]graph.NodeID, n)
	for i := range labels {
		labels[i] = graph.NodeID(find(uint32(i)))
	}
	return math.Float64frombits(total.Load()), labels
}
