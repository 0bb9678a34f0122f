package graph

import (
	"fmt"
	"slices"
	"sync"

	"kimbap/internal/par"
)

// This file is the parallel ingestion path: Build as a two-pass counting
// sort over the builder's edge columns, chunked parallel Symmetrize and
// Dedup, and the shared in-place adjacency sort. Every routine here has a
// retained serial reference in graph.go (BuildSerial, SymmetrizeSerial,
// DedupSerial) that the equivalence tests compare against bit for bit.
//
// The parallel variants are deterministic by construction: all intermediate
// state is keyed by worker index over static par.Range splits and merged in
// worker order, so the output is identical at every worker count — and
// identical to the serial reference, because the final per-node adjacency
// order is the total (dst, weight) order, independent of scatter order.

// NewBuilderFromArrays wraps pre-filled edge columns in a Builder. The
// slices are adopted, not copied — the deterministic generators fill them
// in parallel and hand them over without materializing []Edge. weights may
// be nil for an unweighted graph; if non-nil it must be parallel to
// srcs/dsts.
func NewBuilderFromArrays(numNodes int, srcs, dsts []NodeID, weights []float64) *Builder {
	if len(srcs) != len(dsts) || (weights != nil && len(weights) != len(srcs)) {
		panic("graph: NewBuilderFromArrays column length mismatch")
	}
	return &Builder{numNodes: numNodes, srcs: srcs, dsts: dsts, weights: weights}
}

// AdoptCSR wraps scattered CSR arrays in a Graph without copying them and
// sorts every adjacency list by (dst, weight) with the given worker count
// (0 = all cores), so the result equals Build's on the same edge multiset.
// offsets has length NumNodes+1 and ends at len(dsts); weights is nil for
// an unweighted graph, else parallel to dsts. This is the partitioner's
// per-host path: it writes each local CSR in place and never holds edge
// columns.
//
//kimbap:deterministic
func AdoptCSR(offsets []int64, dsts []NodeID, weights []float64, workers int) *Graph {
	if len(offsets) == 0 || offsets[len(offsets)-1] != int64(len(dsts)) ||
		(weights != nil && len(weights) != len(dsts)) {
		panic("graph: AdoptCSR array length mismatch")
	}
	g := &Graph{offsets: offsets, dsts: dsts, weights: weights}
	sortAdjacency(g, workers)
	return g
}

// countPool recycles the (workers x numNodes) cursor matrices across Build
// and Dedup calls so the warm path stays allocation-bounded (see
// TestBuildWarmPathAllocs).
var countPool sync.Pool

func getCounts(n int) []int64 {
	if v, _ := countPool.Get().(*[]int64); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]int64, n)
}

func putCounts(s []int64) { countPool.Put(&s) }

// buildWorkers clamps the effective worker count for an m-edge pipeline:
// beyond one worker per edge the extra workers only add empty ranges and
// cursor rows.
func (b *Builder) buildWorkers(m int) int {
	w := par.Resolve(b.workers)
	if w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Symmetrize adds the reverse of every edge added so far, making the edge
// set symmetric. Self-loops are not duplicated. Call before Build.
//
// Each worker counts the reversible edges in its static chunk; an exclusive
// scan of the per-worker counts gives each chunk's write start, so the
// reversed edges land in exactly the order SymmetrizeSerial appends them.
//
//kimbap:deterministic
func (b *Builder) Symmetrize() {
	orig := len(b.srcs)
	workers := b.buildWorkers(orig)
	if orig == 0 {
		return
	}
	counts := make([]int64, workers)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(w, workers, orig)
		var c int64
		for i := lo; i < hi; i++ {
			if b.srcs[i] != b.dsts[i] {
				c++
			}
		}
		counts[w] = c
	})
	var added int64
	for w := range counts {
		c := counts[w]
		counts[w] = added
		added += c
	}
	total := orig + int(added)
	b.srcs = slices.Grow(b.srcs, int(added))[:total]
	b.dsts = slices.Grow(b.dsts, int(added))[:total]
	if b.weights != nil {
		b.weights = slices.Grow(b.weights, int(added))[:total]
	}
	par.Do(workers, func(w int) {
		lo, hi := par.Range(w, workers, orig)
		at := orig + int(counts[w])
		for i := lo; i < hi; i++ {
			s, d := b.srcs[i], b.dsts[i]
			if s == d {
				continue
			}
			b.srcs[at] = d
			b.dsts[at] = s
			if b.weights != nil {
				b.weights[at] = b.weights[i]
			}
			at++
		}
	})
}

// countingSortBySrc runs the shared two-pass counting sort: per-worker
// degree counts over static edge ranges, a parallel prefix sum into offsets
// (length numNodes+1, filled here), then conversion of the count matrix
// into scatter cursors. The returned matrix has worker w's cursor row at
// [w*n, (w+1)*n); row w is owned by worker w for the caller's scatter pass
// and cell (w, v) starts at offsets[v] plus the counts of workers < w for v
// — which is what makes a chunked parallel scatter reproduce the serial
// insertion order. Callers must putCounts the matrix when done.
func (b *Builder) countingSortBySrc(workers int, offsets []int64, validateDst bool) []int64 {
	n, m := b.numNodes, len(b.srcs)
	cnt := getCounts(workers * n)
	par.Do(workers, func(w int) {
		c := cnt[w*n : (w+1)*n]
		clear(c)
		lo, hi := par.Range(w, workers, m)
		for i := lo; i < hi; i++ {
			s, d := b.srcs[i], b.dsts[i]
			if int(s) >= n || (validateDst && int(d) >= n) {
				panic(fmt.Sprintf("graph: edge %d->%d out of range for %d nodes", s, d, n))
			}
			c[s]++
		}
	})
	mergeCounts(workers, n, cnt, offsets)
	return cnt
}

// mergeCounts stitches a per-worker count matrix into CSR offsets and
// scatter cursors: column sums into offsets[1..n], a parallel prefix sum,
// then conversion of each count cell into that worker's write cursor for
// the node. Shared by the in-memory counting sort and the streaming
// two-scan build — the cursor math is what makes both scatters
// conflict-free and insertion-ordered.
func mergeCounts(workers, n int, cnt, offsets []int64) {
	par.Static(workers, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var s int64
			for w := 0; w < workers; w++ {
				s += cnt[w*n+v]
			}
			offsets[v+1] = s
		}
	})
	par.PrefixSum(workers, offsets)
	par.Static(workers, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			pos := offsets[v]
			for w := 0; w < workers; w++ {
				c := cnt[w*n+v]
				cnt[w*n+v] = pos
				pos += c
			}
		}
	})
}

// sortAdjacency runs the per-node adjacency sort on a scattered CSR,
// dynamically balanced: power-law hubs cost far more than the grain
// average. The (dst, weight) order is total up to fully equal entries, so
// the result is independent of scatter order — the root of the
// bit-identity guarantee shared by Build, BuildSerial, and StreamBuilder.
// A weighted row that is already in order (every row the partitioner
// scatters from master-only destinations) costs one scan.
func sortAdjacency(g *Graph, workers int) {
	par.Dynamic(workers, g.NumNodes(), 128, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			elo, ehi := g.offsets[v], g.offsets[v+1]
			if g.weights != nil {
				if !dwSorted(g.dsts[elo:ehi], g.weights[elo:ehi]) {
					sortDstWeight(g.dsts[elo:ehi], g.weights[elo:ehi])
				}
			} else {
				slices.Sort(g.dsts[elo:ehi])
			}
		}
	})
}

// Build produces the CSR graph with a two-pass parallel counting sort. The
// Builder must not be reused afterwards. Neighbor lists are sorted by
// destination (and weight, for weighted graphs); the output is
// bit-identical to BuildSerial at every worker count.
//
//kimbap:deterministic
func (b *Builder) Build() *Graph {
	n, m := b.numNodes, len(b.srcs)
	workers := b.buildWorkers(m)
	g := &Graph{offsets: make([]int64, n+1), dsts: make([]NodeID, m)}
	if b.weights != nil {
		g.weights = make([]float64, m)
	}
	if m == 0 {
		return g
	}
	cnt := b.countingSortBySrc(workers, g.offsets, true)
	// Scatter: conflict-free — every write lands in a slot reserved by this
	// worker's cursor row.
	//
	//kimbap:conflictfree
	par.Do(workers, func(w int) {
		c := cnt[w*n : (w+1)*n]
		lo, hi := par.Range(w, workers, m)
		if b.weights != nil {
			for i := lo; i < hi; i++ {
				at := c[b.srcs[i]]
				c[b.srcs[i]] = at + 1
				g.dsts[at] = b.dsts[i]
				g.weights[at] = b.weights[i]
			}
		} else {
			for i := lo; i < hi; i++ {
				at := c[b.srcs[i]]
				c[b.srcs[i]] = at + 1
				g.dsts[at] = b.dsts[i]
			}
		}
	})
	putCounts(cnt)
	sortAdjacency(g, workers)
	return g
}

// Dedup removes duplicate (src,dst) pairs, keeping the smallest weight (see
// DedupSerial for why the minimum). Call before Build if the edge stream
// may contain duplicates.
//
// Pipeline: counting-sort the columns by source into scratch (the source
// column becomes implicit in the bucket boundaries), sort each source
// bucket in place by (dst, weight), then compact the first entry of each
// dst run — the minimum weight — back into the builder's columns with a
// second exclusive scan. The result is the globally (src, dst, weight)-
// sorted first-survivor edge list: exactly DedupSerial's output. Unlike
// DedupSerial, this path validates sources eagerly (it must bucket by
// them); out-of-range destinations are still caught by Build.
//
//kimbap:deterministic
func (b *Builder) Dedup() {
	n, m := b.numNodes, len(b.srcs)
	workers := b.buildWorkers(m)
	if m == 0 {
		return
	}
	boff := make([]int64, n+1)
	cnt := b.countingSortBySrc(workers, boff, false)
	sd := make([]NodeID, m)
	var sw []float64
	if b.weights != nil {
		sw = make([]float64, m)
	}
	//kimbap:conflictfree
	par.Do(workers, func(w int) {
		c := cnt[w*n : (w+1)*n]
		lo, hi := par.Range(w, workers, m)
		for i := lo; i < hi; i++ {
			at := c[b.srcs[i]]
			c[b.srcs[i]] = at + 1
			sd[at] = b.dsts[i]
			if sw != nil {
				sw[at] = b.weights[i]
			}
		}
	})
	putCounts(cnt)
	par.Dynamic(workers, n, 128, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			blo, bhi := boff[v], boff[v+1]
			if sw != nil {
				sortDstWeight(sd[blo:bhi], sw[blo:bhi])
			} else {
				slices.Sort(sd[blo:bhi])
			}
		}
	})
	// Survivor count and compaction use the same static node split, so the
	// exclusive scan of per-worker survivor counts gives exact write
	// positions into the original columns (reads come only from scratch).
	counts := make([]int64, workers)
	par.Static(workers, n, func(w, lo, hi int) {
		var c int64
		for v := lo; v < hi; v++ {
			blo, bhi := boff[v], boff[v+1]
			for j := blo; j < bhi; j++ {
				if j == blo || sd[j] != sd[j-1] {
					c++
				}
			}
		}
		counts[w] = c
	})
	var total int64
	for w := range counts {
		c := counts[w]
		counts[w] = total
		total += c
	}
	par.Static(workers, n, func(w, lo, hi int) {
		at := counts[w]
		for v := lo; v < hi; v++ {
			blo, bhi := boff[v], boff[v+1]
			for j := blo; j < bhi; j++ {
				if j != blo && sd[j] == sd[j-1] {
					continue
				}
				b.srcs[at] = NodeID(v)
				b.dsts[at] = sd[j]
				if sw != nil {
					b.weights[at] = sw[j]
				}
				at++
			}
		}
	})
	b.srcs = b.srcs[:total]
	b.dsts = b.dsts[:total]
	if b.weights != nil {
		b.weights = b.weights[:total]
	}
}
