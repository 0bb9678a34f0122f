package graph

import (
	"slices"

	"kimbap/internal/par"
)

// This file holds the in-memory entry points of the one CSR builder,
// StreamBuilder.Build (stream.go): Builder.Build and BuildSymmetric hand
// their edge columns to it through columnSource, and BuildSymmetric
// collapses duplicate edges after the build with dedupRows. It also holds
// the per-node adjacency sort every CSR construction shares, and AdoptCSR
// for the partitioner's pre-scattered host CSRs. Every path is bit-identical to the serial
// references in graph.go (BuildSerial, SymmetrizeSerial, DedupSerial),
// which the equivalence tests compare against.

// columnBlockEdges caps the input edges per columnSource block, and with
// it each build worker's block buffer (twice this for a symmetric source).
const columnBlockEdges = 1 << 14

// columnSource is a BlockSource over in-memory edge columns. ReadBlock
// copies its range into the caller's block and never aliases the
// columns: the next Reset of that block would write through them. A
// symmetric source also emits the reverse of every edge that is not a
// self-loop, so the build sees SymmetrizeSerial's edge multiset without
// the columns ever growing.
type columnSource struct {
	numNodes   int
	srcs, dsts []NodeID
	weights    []float64 // nil for an unweighted graph
	symmetric  bool
	blockLen   int
}

// buildColumns runs StreamBuilder over a columnSource. It panics on an
// edge endpoint outside the node range.
func buildColumns(numNodes int, srcs, dsts []NodeID, weights []float64, symmetric bool, workers int) *Graph {
	if len(srcs) != len(dsts) || (weights != nil && len(weights) != len(srcs)) {
		panic("graph: edge column length mismatch")
	}
	g, err := NewStreamBuilder(newColumnSource(numNodes, srcs, dsts, weights, symmetric, workers)).
		SetWorkers(workers).Build()
	if err != nil {
		panic(err)
	}
	return g
}

// newColumnSource splits the columns into at least one block per worker
// (more once a worker's share exceeds columnBlockEdges), so small inputs
// still exercise every worker of the build.
func newColumnSource(numNodes int, srcs, dsts []NodeID, weights []float64, symmetric bool, workers int) *columnSource {
	w := par.Resolve(workers)
	blockLen := min(columnBlockEdges, max(1, (len(srcs)+w-1)/w))
	return &columnSource{numNodes: numNodes, srcs: srcs, dsts: dsts, weights: weights,
		symmetric: symmetric, blockLen: blockLen}
}

func (s *columnSource) NumNodes() int  { return s.numNodes }
func (s *columnSource) Weighted() bool { return s.weights != nil }
func (s *columnSource) NumBlocks() int { return (len(s.srcs) + s.blockLen - 1) / s.blockLen }

func (s *columnSource) ReadBlock(i int, blk *EdgeBlock) error {
	lo := i * s.blockLen
	hi := min(lo+s.blockLen, len(s.srcs))
	size := hi - lo
	if s.symmetric {
		size *= 2
	}
	blk.Reset(size, s.weights != nil)
	k := copy(blk.Srcs, s.srcs[lo:hi])
	copy(blk.Dsts, s.dsts[lo:hi])
	if s.weights != nil {
		copy(blk.Weights, s.weights[lo:hi])
	}
	if !s.symmetric {
		return nil
	}
	for j := lo; j < hi; j++ {
		if s.srcs[j] == s.dsts[j] {
			continue
		}
		blk.Srcs[k], blk.Dsts[k] = s.dsts[j], s.srcs[j]
		if s.weights != nil {
			blk.Weights[k] = s.weights[j]
		}
		k++
	}
	blk.Srcs, blk.Dsts = blk.Srcs[:k], blk.Dsts[:k]
	if s.weights != nil {
		blk.Weights = blk.Weights[:k]
	}
	return nil
}

// Build produces the CSR graph through StreamBuilder. Neighbor lists are
// sorted by destination (and weight, for weighted graphs); the output is
// bit-identical to BuildSerial at every worker count. Build reads the
// columns and never writes them. It panics on an edge endpoint outside
// the node range.
//
//kimbap:deterministic
func (b *Builder) Build() *Graph {
	return buildColumns(b.numNodes, b.srcs, b.dsts, b.weights, false, b.workers)
}

// BuildSymmetric builds the symmetric closure of the edge columns
// (srcs[i] -> dsts[i], weight weights[i]) with every duplicate (src, dst)
// pair collapsed to its minimum weight: bit-identical to SymmetrizeSerial,
// DedupSerial and BuildSerial over the same columns, at every worker count
// (0 = all cores). weights nil builds an unweighted graph. The columns are
// read, never written. This is the generators' build.
//
//kimbap:deterministic
func BuildSymmetric(numNodes int, srcs, dsts []NodeID, weights []float64, workers int) *Graph {
	return dedupRows(buildColumns(numNodes, srcs, dsts, weights, true, workers), workers)
}

// dedupRows returns g with each row's runs of equal destinations
// collapsed to their first entry. Rows are sorted by (dst, weight), so
// that entry carries the run's minimum weight: DedupSerial's survivor. A
// graph without duplicates is returned as is.
//
//kimbap:deterministic
func dedupRows(g *Graph, workers int) *Graph {
	n := g.NumNodes()
	offsets := make([]int64, n+1)
	par.Dynamic(workers, n, 128, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := g.dsts[g.offsets[v]:g.offsets[v+1]]
			var c int64
			for j := range row {
				if j == 0 || row[j] != row[j-1] {
					c++
				}
			}
			offsets[v+1] = c
		}
	})
	if par.PrefixSum(workers, offsets) == g.NumEdges() {
		return g
	}
	out := &Graph{offsets: offsets, dsts: make([]NodeID, offsets[n])}
	if g.weights != nil {
		out.weights = make([]float64, offsets[n])
	}
	// Row v's survivors land in [offsets[v], offsets[v+1]), a range no
	// other row writes.
	//
	//kimbap:conflictfree
	par.Dynamic(workers, n, 128, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			at := offsets[v]
			for e := g.offsets[v]; e < g.offsets[v+1]; e++ {
				if e > g.offsets[v] && g.dsts[e] == g.dsts[e-1] {
					continue
				}
				out.dsts[at] = g.dsts[e]
				if out.weights != nil {
					out.weights[at] = g.weights[e]
				}
				at++
			}
		}
	})
	return out
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

// sortAdjacency runs the per-node adjacency sort on a scattered CSR,
// dynamically balanced: power-law hubs cost far more than the grain
// average. The (dst, weight) order is total up to fully equal entries, so
// the result is independent of scatter order — the root of the
// bit-identity guarantee shared by StreamBuilder, BuildSerial and
// AdoptCSR. A weighted row that is already in order (every row the
// partitioner scatters from master-only destinations) costs one scan.
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
