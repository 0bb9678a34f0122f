// Package gen produces deterministic synthetic graphs standing in for the
// paper's four evaluation inputs (Table 1): a high-diameter road network
// (road-europe), a power-law social network (friendster), and two larger
// power-law web crawls (clueweb12, wdc12). Real inputs are 3 GB - 1 TB and
// not redistributable, so the reproduction uses generators that preserve
// the two structural properties the evaluation depends on: diameter and
// degree skew. All generators are deterministic given a seed: every
// candidate edge draws from its own counter-based PRNG stream (rand.go),
// so generation parallelizes over candidate chunks and the output is
// bit-identical at every worker count.
package gen

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"kimbap/internal/graph"
)

// Grid generates a rows x cols 4-neighbor grid, the road-network analogue:
// uniform small degree (<=4), high diameter (rows+cols), single component.
// The result is symmetric. If weighted, edge weights are deterministic
// pseudo-random values in [1, 100).
//
//kimbap:deterministic
func Grid(rows, cols int, weighted bool, seed int64) *graph.Graph {
	return gridCandidates(rows, cols, weighted, seed).build()
}

func gridCandidates(rows, cols int, weighted bool, seed int64) candidates {
	// Candidate c: cell c/2's rightward (even c) or downward (odd c) edge;
	// border cells drop the candidates that would leave the grid.
	return candidates{rows * cols, rows * cols * 2, weighted,
		func(c int) (src, dst graph.NodeID, w float64, ok bool) {
			cell := c >> 1
			i, j := cell/cols, cell%cols
			if c&1 == 0 {
				if j+1 >= cols {
					return 0, 0, 0, false
				}
				dst = graph.NodeID(cell + 1)
			} else {
				if i+1 >= rows {
					return 0, 0, 0, false
				}
				dst = graph.NodeID(cell + cols)
			}
			r := newEdgeRand(seed, int64(c))
			return graph.NodeID(cell), dst, 1 + 99*r.Float64(), true
		}}
}

// RMAT generates a power-law graph with 2^scale nodes and approximately
// edgeFactor*2^scale undirected edges using the R-MAT recursive-quadrant
// model with the standard (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) parameters.
// Duplicate edges and self-loops are removed and the result is symmetrized,
// so the final edge count is somewhat below 2*edgeFactor*2^scale.
//
//kimbap:deterministic
func RMAT(scale int, edgeFactor int, weighted bool, seed int64) *graph.Graph {
	return rmatCandidates(scale, edgeFactor, weighted, seed).build()
}

func rmatCandidates(scale, edgeFactor int, weighted bool, seed int64) candidates {
	const a, b, c = 0.57, 0.19, 0.19
	n := 1 << scale
	return candidates{n, edgeFactor * n, weighted,
		func(cd int) (graph.NodeID, graph.NodeID, float64, bool) {
			r := newEdgeRand(seed, int64(cd))
			src, dst := 0, 0
			for bit := scale - 1; bit >= 0; bit-- {
				p := r.Float64()
				switch {
				case p < a:
					// top-left quadrant: no bits set
				case p < a+b:
					dst |= 1 << bit
				case p < a+b+c:
					src |= 1 << bit
				default:
					src |= 1 << bit
					dst |= 1 << bit
				}
			}
			if src == dst {
				return 0, 0, 0, false
			}
			return graph.NodeID(src), graph.NodeID(dst), 1 + 99*r.Float64(), true
		}}
}

// ErdosRenyi generates a G(n, m) random graph with m directed edges chosen
// uniformly (self-loops skipped), then symmetrized and deduplicated.
//
//kimbap:deterministic
func ErdosRenyi(n, m int, weighted bool, seed int64) *graph.Graph {
	return erdosRenyiCandidates(n, m, weighted, seed).build()
}

func erdosRenyiCandidates(n, m int, weighted bool, seed int64) candidates {
	return candidates{n, m, weighted,
		func(c int) (graph.NodeID, graph.NodeID, float64, bool) {
			r := newEdgeRand(seed, int64(c))
			src := graph.NodeID(r.Intn(n))
			dst := graph.NodeID(r.Intn(n))
			if src == dst {
				return 0, 0, 0, false
			}
			return src, dst, 1 + 99*r.Float64(), true
		}}
}

// Chain generates a path graph 0-1-2-...-(n-1), symmetrized. Its diameter is
// n-1, the extreme case for pointer-jumping algorithms.
//
//kimbap:deterministic
func Chain(n int, weighted bool, seed int64) *graph.Graph {
	return chainCandidates(n, weighted, seed).build()
}

func chainCandidates(n int, weighted bool, seed int64) candidates {
	return candidates{n, max(n-1, 0), weighted,
		func(c int) (graph.NodeID, graph.NodeID, float64, bool) {
			r := newEdgeRand(seed, int64(c))
			return graph.NodeID(c), graph.NodeID(c + 1), 1 + 99*r.Float64(), true
		}}
}

// Star generates a hub-and-spoke graph: node 0 connected to all others,
// symmetrized. It is the extreme case for reduction conflicts on a
// high-degree node.
//
//kimbap:deterministic
func Star(n int) *graph.Graph {
	return starCandidates(n).build()
}

func starCandidates(n int) candidates {
	return candidates{n, max(n-1, 0), false,
		func(c int) (graph.NodeID, graph.NodeID, float64, bool) {
			return 0, graph.NodeID(c + 1), 1, true
		}}
}

// Communities generates a planted-partition graph with k communities of
// the given size: intra-community edges with probability pIn expressed via
// expected intra-degree degIn, plus degOut random inter-community edges per
// node. Ground truth is recoverable by community detection; used to sanity
// check Louvain/Leiden quality.
//
//kimbap:deterministic
func Communities(k, size, degIn, degOut int, weighted bool, seed int64) *graph.Graph {
	return communitiesCandidates(k, size, degIn, degOut, weighted, seed).build()
}

func communitiesCandidates(k, size, degIn, degOut int, weighted bool, seed int64) candidates {
	n := k * size
	// Each node owns a block of candidate slots: slot 0 is its ring edge
	// (connecting the community), the next degIn slots draw intra-community
	// destinations, the rest draw global ones.
	slots := 1 + degIn + degOut
	return candidates{n, n * slots, weighted,
		func(c int) (graph.NodeID, graph.NodeID, float64, bool) {
			u, slot := c/slots, c%slots
			base := (u / size) * size
			r := newEdgeRand(seed, int64(c))
			var v int
			switch {
			case slot == 0:
				// Ring within the community guarantees it is connected.
				v = base + (u-base+1)%size
			case slot <= degIn:
				v = base + r.Intn(size)
			default:
				v = r.Intn(n)
			}
			if u == v {
				return 0, 0, 0, false
			}
			return graph.NodeID(u), graph.NodeID(v), 1 + 9*r.Float64(), true
		}}
}

// Preset names the scaled-down analogues of the paper's Table 1 inputs.
type Preset string

// The four presets mirror Table 1's graph classes at laptop scale.
const (
	// RoadEurope: high diameter, uniform degree <= 4 (paper: 173M nodes,
	// 365M edges, max degree 16). Here: a grid.
	RoadEurope Preset = "road-europe"
	// Friendster: power-law social network (paper: 41M nodes, 2B edges,
	// max degree 3M). Here: R-MAT scale 14.
	Friendster Preset = "friendster"
	// Clueweb12: large power-law web crawl (paper: 978M nodes, 85B edges).
	// Here: R-MAT scale 16.
	Clueweb12 Preset = "clueweb12"
	// WDC12: the largest public graph (paper: 3B nodes, 256B edges).
	// Here: R-MAT scale 17.
	WDC12 Preset = "wdc12"
)

// Presets lists all graph presets in Table 1 order.
var Presets = []Preset{RoadEurope, Friendster, Clueweb12, WDC12}

// Build generates the preset graph. Weighted graphs are needed for MSF,
// LV, and LD; generators always attach weights so one graph serves all
// algorithms.
//
//kimbap:deterministic
func Build(p Preset) *graph.Graph {
	switch p {
	case RoadEurope:
		return Grid(160, 160, true, 42)
	case Friendster:
		return RMAT(14, 16, true, 43)
	case Clueweb12:
		return RMAT(16, 20, true, 44)
	case WDC12:
		return RMAT(17, 18, true, 45)
	default:
		panic("gen: unknown preset " + string(p))
	}
}

// BuildSmall generates a reduced version of the preset for unit tests.
//
//kimbap:deterministic
func BuildSmall(p Preset) *graph.Graph {
	switch p {
	case RoadEurope:
		return Grid(24, 24, true, 42)
	case Friendster:
		return RMAT(9, 8, true, 43)
	case Clueweb12:
		return RMAT(10, 8, true, 44)
	case WDC12:
		return RMAT(10, 10, true, 45)
	default:
		panic("gen: unknown preset " + string(p))
	}
}

// ApproxDiameter estimates a graph's diameter with a double-sweep BFS:
// BFS from node 0, then BFS from the farthest node found. This lower bound
// is exact on trees and accurate enough to classify graphs as high- or
// low-diameter.
func ApproxDiameter(g *graph.Graph) int {
	if g.NumNodes() == 0 {
		return 0
	}
	far, _ := bfsFarthest(g, 0)
	_, d := bfsFarthest(g, far)
	return d
}

func bfsFarthest(g *graph.Graph, start graph.NodeID) (graph.NodeID, int) {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = math.MaxInt
	}
	dist[start] = 0
	queue := []graph.NodeID{start}
	farNode, farDist := start, 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == math.MaxInt {
				dist[v] = dist[u] + 1
				if dist[v] > farDist {
					farDist, farNode = dist[v], v
				}
				queue = append(queue, v)
			}
		}
	}
	return farNode, farDist
}

// Load resolves a graph specification: a preset name ("friendster"), a
// reduced preset ("small:friendster"), or a path to a graph file. A file
// with the KMB2 magic streams through the block builder; any other file
// is parsed as a text edge list, whose node count is inferred when it
// has no nodes directive. Every algorithm runs on symmetrized graphs, and
// a one-way edge makes them return wrong answers rather than fail, so a
// file graph with an edge whose reverse at the same weight is missing is
// rejected with an error that names the edge.
func Load(spec string) (*graph.Graph, error) {
	if small, ok := strings.CutPrefix(spec, "small:"); ok {
		for _, p := range Presets {
			if small == string(p) {
				return BuildSmall(Preset(small)), nil
			}
		}
		return nil, fmt.Errorf("gen: unknown preset %q", small)
	}
	for _, p := range Presets {
		if spec == string(p) {
			return Build(p), nil
		}
	}
	g, err := loadFile(spec)
	if err != nil {
		return nil, err
	}
	if e, ok := oneWayEdge(g); ok {
		return nil, fmt.Errorf("gen: %s: one-way edge %d->%d: no reverse edge %d->%d at weight %g; the algorithms need a symmetric edge list",
			spec, e.Src, e.Dst, e.Dst, e.Src, e.Weight)
	}
	return g, nil
}

// loadFile reads a KMB2 or text graph file.
func loadFile(path string) (*graph.Graph, error) {
	kmb2, err := graph.IsKMB2File(path)
	if err != nil {
		return nil, fmt.Errorf("gen: %q is not a preset and cannot be read as a graph file: %w", path, err)
	}
	if kmb2 {
		s, err := graph.OpenKMB2(path)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		return graph.NewStreamBuilder(s).Build()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// oneWayEdge returns an edge of g whose reverse at the same weight is
// missing, if there is one. Adjacency is sorted by destination, so each
// reverse lookup is a binary search of the destination's neighbors.
func oneWayEdge(g *graph.Graph) (graph.Edge, bool) {
	for u := 0; u < g.NumNodes(); u++ {
		src := graph.NodeID(u)
		lo, hi := g.EdgeRange(src)
		for e := lo; e < hi; e++ {
			dst, w := g.Dst(e), g.Weight(e)
			if !hasEdgeAt(g, dst, src, w) {
				return graph.Edge{Src: src, Dst: dst, Weight: w}, true
			}
		}
	}
	return graph.Edge{}, false
}

// hasEdgeAt reports whether g has an edge src->dst of weight w.
func hasEdgeAt(g *graph.Graph, src, dst graph.NodeID, w float64) bool {
	ns := g.Neighbors(src)
	lo, _ := g.EdgeRange(src)
	for i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst }); i < len(ns) && ns[i] == dst; i++ {
		if g.Weight(lo+int64(i)) == w {
			return true
		}
	}
	return false
}
