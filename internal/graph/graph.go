// Package graph provides the in-memory graph representation used throughout
// Kimbap: a compressed sparse row (CSR) adjacency structure over 32-bit node
// IDs with optional edge weights.
//
// Graphs in Kimbap are directed at the representation level; undirected
// graphs are stored in symmetrized form (each undirected edge appears as two
// directed edges). All algorithms in the paper operate on symmetrized graphs.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a node in a graph. IDs are dense: a graph with n nodes
// uses IDs 0..n-1.
type NodeID uint32

// InvalidNode is a sentinel value that is never a valid node ID.
const InvalidNode = NodeID(math.MaxUint32)

// Edge is a directed edge with an optional weight. Weights default to 1 for
// unweighted graphs.
type Edge struct {
	Src, Dst NodeID
	Weight   float64
}

// Graph is an immutable directed graph in CSR form. Construct one with a
// Builder or one of the loaders; the zero value is an empty graph.
type Graph struct {
	offsets []int64   // len = NumNodes()+1; offsets[i]..offsets[i+1] index into dsts
	dsts    []NodeID  // destination of each edge, grouped by source
	weights []float64 // nil for unweighted graphs; else parallel to dsts
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed edges in the graph.
func (g *Graph) NumEdges() int64 {
	if len(g.offsets) == 0 {
		return 0
	}
	return g.offsets[len(g.offsets)-1]
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the out-degree of node n.
func (g *Graph) Degree(n NodeID) int {
	return int(g.offsets[n+1] - g.offsets[n])
}

// Neighbors returns the destinations of all out-edges of node n.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	return g.dsts[g.offsets[n]:g.offsets[n+1]]
}

// EdgeWeights returns the weights of all out-edges of n, parallel to
// Neighbors(n). It returns nil for unweighted graphs.
func (g *Graph) EdgeWeights(n NodeID) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[n]:g.offsets[n+1]]
}

// EdgeRange returns the half-open range of edge indices for node n's
// out-edges. Edge indices are stable and can index Dst and Weight.
func (g *Graph) EdgeRange(n NodeID) (lo, hi int64) {
	return g.offsets[n], g.offsets[n+1]
}

// Dst returns the destination of the edge with the given index.
func (g *Graph) Dst(e int64) NodeID { return g.dsts[e] }

// Weight returns the weight of the edge with the given index
// (1 for unweighted graphs).
func (g *Graph) Weight(e int64) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[e]
}

// HasEdge reports whether a directed edge src->dst exists. Neighbor lists
// are sorted by construction, so this is a binary search.
func (g *Graph) HasEdge(src, dst NodeID) bool {
	ns := g.Neighbors(src)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	return i < len(ns) && ns[i] == dst
}

// MaxDegree returns the largest out-degree of any node, and 0 for an
// empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for n := 0; n < g.NumNodes(); n++ {
		if d := g.Degree(NodeID(n)); d > max {
			max = d
		}
	}
	return max
}

// TotalWeight returns the sum of all edge weights (NumEdges for unweighted
// graphs).
func (g *Graph) TotalWeight() float64 {
	if g.weights == nil {
		return float64(g.NumEdges())
	}
	sum := 0.0
	for _, w := range g.weights {
		sum += w
	}
	return sum
}

// Stats summarizes a graph in the shape of the paper's Table 1.
type Stats struct {
	Nodes     int
	Edges     int64
	AvgDegree float64
	MaxDegree int
}

// ComputeStats returns summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
	if s.Nodes > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d |E|/|V|=%.1f maxdeg=%d",
		s.Nodes, s.Edges, s.AvgDegree, s.MaxDegree)
}

// Builder accumulates edges and produces an immutable CSR Graph. Edges are
// held in structure-of-arrays form — separate src/dst/weight columns — so
// Build hands them to StreamBuilder as blocks (build.go) and unweighted
// graphs never pay for a weight column. It is not safe for concurrent use.
type Builder struct {
	numNodes int
	srcs     []NodeID
	dsts     []NodeID
	weights  []float64 // nil until the first weighted edge
	workers  int       // 0 = par.DefaultWorkers
}

// NewBuilder returns a Builder for a graph with the given number of nodes.
func NewBuilder(numNodes int) *Builder {
	return &Builder{numNodes: numNodes}
}

// SetWorkers fixes the worker count Build uses. Zero (the default) means
// all cores; tests force specific counts to exercise the parallel paths
// regardless of machine size. Output is bit-identical at every setting.
func (b *Builder) SetWorkers(w int) *Builder {
	b.workers = w
	return b
}

// AddEdge adds a directed unweighted edge (weight 1).
func (b *Builder) AddEdge(src, dst NodeID) {
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	if b.weights != nil {
		b.weights = append(b.weights, 1)
	}
}

// AddWeightedEdge adds a directed edge with the given weight and marks the
// graph as weighted.
func (b *Builder) AddWeightedEdge(src, dst NodeID, w float64) {
	if b.weights == nil {
		// Edges added before the first weighted one carry the default
		// weight 1.
		b.weights = make([]float64, len(b.srcs), cap(b.srcs))
		for i := range b.weights {
			b.weights[i] = 1
		}
	}
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	b.weights = append(b.weights, w)
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.srcs) }

// SymmetrizeSerial adds the reverse of every edge added so far, except
// self-loops. It is the single-threaded reference for BuildSymmetric's
// symmetric closure; the equivalence tests compare the two bit for bit.
func (b *Builder) SymmetrizeSerial() {
	orig := len(b.srcs)
	for i := 0; i < orig; i++ {
		s, d := b.srcs[i], b.dsts[i]
		if s != d {
			b.srcs = append(b.srcs, d)
			b.dsts = append(b.dsts, s)
			if b.weights != nil {
				b.weights = append(b.weights, b.weights[i])
			}
		}
	}
}

// DedupSerial is the single-threaded reference for BuildSymmetric's
// duplicate removal: a global (src, dst, weight) sort followed by a linear
// compaction keeping the first edge of each (src, dst) group — the
// minimum weight. Taking the minimum
// (rather than an arbitrary survivor) keeps symmetrized graphs
// weight-symmetric: both directions of a multi-edge collapse to the same
// value.
func (b *Builder) DedupSerial() {
	m := len(b.srcs)
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, c := idx[i], idx[j]
		if b.srcs[a] != b.srcs[c] {
			return b.srcs[a] < b.srcs[c]
		}
		if b.dsts[a] != b.dsts[c] {
			return b.dsts[a] < b.dsts[c]
		}
		return b.weights != nil && b.weights[a] < b.weights[c]
	})
	ns := make([]NodeID, 0, m)
	nd := make([]NodeID, 0, m)
	var nw []float64
	if b.weights != nil {
		nw = make([]float64, 0, m)
	}
	for _, k := range idx {
		if n := len(ns); n > 0 && b.srcs[k] == ns[n-1] && b.dsts[k] == nd[n-1] {
			continue
		}
		ns = append(ns, b.srcs[k])
		nd = append(nd, b.dsts[k])
		if nw != nil {
			nw = append(nw, b.weights[k])
		}
	}
	b.srcs, b.dsts, b.weights = ns, nd, nw
}

// BuildSerial is the single-threaded reference for every CSR build:
// degree count, prefix sum, stable scatter in insertion order, then the
// same in-place per-node (dst, weight) sort the parallel paths use.
func (b *Builder) BuildSerial() *Graph {
	n := b.numNodes
	g := &Graph{offsets: make([]int64, n+1)}
	for i := range b.srcs {
		s, d := b.srcs[i], b.dsts[i]
		if int(s) >= n || int(d) >= n {
			panic(fmt.Sprintf("graph: edge %d->%d out of range for %d nodes", s, d, n))
		}
		g.offsets[s+1]++
	}
	for i := 1; i <= n; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	g.dsts = make([]NodeID, len(b.srcs))
	if b.weights != nil {
		g.weights = make([]float64, len(b.srcs))
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for i := range b.srcs {
		at := cursor[b.srcs[i]]
		cursor[b.srcs[i]]++
		g.dsts[at] = b.dsts[i]
		if g.weights != nil {
			g.weights[at] = b.weights[i]
		}
	}
	// Sort each adjacency list by destination for deterministic iteration
	// and binary-searchable HasEdge.
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if g.weights != nil {
			sortDstWeight(g.dsts[lo:hi], g.weights[lo:hi])
		} else {
			slices.Sort(g.dsts[lo:hi])
		}
	}
	return g
}
