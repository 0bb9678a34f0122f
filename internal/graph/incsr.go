package graph

import (
	"slices"
	"sort"

	"kimbap/internal/par"
)

// This file is the transpose (in-edge) CSR: the index pull-mode execution
// scans to read a vertex's in-neighbors. It can be materialized two ways
// with bit-identical results:
//
//   - lazily from a built graph via EnsureInCSR (a counting sort by
//     destination over the existing CSR), or
//   - fused into the streaming two-scan build (stream.go), where pass 1
//     counts both degree arrays and pass 2 scatters both columns.
//
// Both paths end with the same total (src, weight) per-node sort that the
// out-CSR uses for (dst, weight), so the in-CSR equals the CSR of
// Transpose(g) exactly — the equivalence the incsr tests pin against the
// serial oracle.

// HasInCSR reports whether the transpose CSR has been materialized.
func (g *Graph) HasInCSR() bool { return g.inOffsets != nil }

// InDegree returns the in-degree of node n. The in-CSR must be
// materialized.
func (g *Graph) InDegree(n NodeID) int {
	return int(g.inOffsets[n+1] - g.inOffsets[n])
}

// InNeighbors returns the sources of all in-edges of node n, sorted. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(n NodeID) []NodeID {
	return g.inSrcs[g.inOffsets[n]:g.inOffsets[n+1]]
}

// InEdgeWeights returns the weights of node n's in-edges, parallel to
// InNeighbors(n). It returns nil for unweighted graphs.
func (g *Graph) InEdgeWeights(n NodeID) []float64 {
	if g.inWeights == nil {
		return nil
	}
	return g.inWeights[g.inOffsets[n]:g.inOffsets[n+1]]
}

// InEdgeRange returns the half-open range of in-edge indices for node n.
// In-edge indices are stable and can index InSrc and InWeight.
func (g *Graph) InEdgeRange(n NodeID) (lo, hi int64) {
	return g.inOffsets[n], g.inOffsets[n+1]
}

// InSrc returns the source of the in-edge with the given index.
func (g *Graph) InSrc(e int64) NodeID { return g.inSrcs[e] }

// InWeight returns the weight of the in-edge with the given index
// (1 for unweighted graphs).
func (g *Graph) InWeight(e int64) float64 {
	if g.inWeights == nil {
		return 1
	}
	return g.inWeights[e]
}

// InCSRFootprint returns the heap bytes held by the transpose CSR, 0 when
// it is not materialized. Memory accounting (npm) charges this alongside
// the pull scratch so peak_alloc_bytes stays honest.
func (g *Graph) InCSRFootprint() int64 {
	return int64(cap(g.inOffsets))*8 + int64(cap(g.inSrcs))*4 + int64(cap(g.inWeights))*8
}

// EnsureInCSR materializes the transpose CSR with the given worker count
// (0 = all cores) if it is not already present. Safe to call from multiple
// phases; only the first call builds. The result is bit-identical to
// Transpose(g)'s CSR at every worker count.
//
//kimbap:deterministic
func (g *Graph) EnsureInCSR(workers int) {
	g.inOnce.Do(func() {
		if g.inOffsets == nil {
			g.buildInCSR(workers)
		}
	})
}

// adoptInCSR installs a transpose CSR built elsewhere (the fused stream
// build) and marks the lazy path done.
func (g *Graph) adoptInCSR(offsets []int64, srcs []NodeID, weights []float64) {
	g.inOffsets, g.inSrcs, g.inWeights = offsets, srcs, weights
	g.inOnce.Do(func() {})
}

// buildInCSR is a counting sort of the existing CSR by destination: the
// same two-pass structure as Builder.Build, with the source column implied
// by the out-edge offsets instead of stored.
func (g *Graph) buildInCSR(workers int) {
	n := g.NumNodes()
	m := int(g.NumEdges())
	w := par.Resolve(workers)
	if w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	g.inOffsets = make([]int64, n+1)
	g.inSrcs = make([]NodeID, m)
	if g.weights != nil {
		g.inWeights = make([]float64, m)
	}
	if m == 0 {
		return
	}
	cnt := getCounts(w * n)
	par.Do(w, func(wi int) {
		c := cnt[wi*n : (wi+1)*n]
		clear(c)
		lo, hi := par.Range(wi, w, m)
		for e := lo; e < hi; e++ {
			c[g.dsts[e]]++
		}
	})
	mergeCounts(w, n, cnt, g.inOffsets)
	// Scatter: each worker re-walks its static edge range, tracking the
	// source node whose out-range covers the cursor. Conflict-free — every
	// write lands in a slot reserved by this worker's cursor row.
	//
	//kimbap:conflictfree
	par.Do(w, func(wi int) {
		c := cnt[wi*n : (wi+1)*n]
		lo, hi := par.Range(wi, w, m)
		if lo >= hi {
			return
		}
		src := sort.Search(n, func(v int) bool { return g.offsets[v+1] > int64(lo) })
		for e := lo; e < hi; e++ {
			for int64(e) >= g.offsets[src+1] {
				src++
			}
			d := g.dsts[e]
			at := c[d]
			c[d] = at + 1
			g.inSrcs[at] = NodeID(src)
			if g.inWeights != nil {
				g.inWeights[at] = g.weights[e]
			}
		}
	})
	putCounts(cnt)
	sortInAdjacency(g, w)
}

// sortInAdjacency is sortAdjacency for the transpose columns: the per-node
// (src, weight) total order that makes the in-CSR independent of scatter
// order and therefore equal across the lazy and fused build paths.
func sortInAdjacency(g *Graph, workers int) {
	par.Dynamic(workers, g.NumNodes(), 128, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			elo, ehi := g.inOffsets[v], g.inOffsets[v+1]
			if g.inWeights != nil {
				sortDstWeight(g.inSrcs[elo:ehi], g.inWeights[elo:ehi])
			} else {
				slices.Sort(g.inSrcs[elo:ehi])
			}
		}
	})
}
