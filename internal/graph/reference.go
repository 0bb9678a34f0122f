package graph

import (
	"math/bits"
	"sort"
)

// This file holds single-threaded reference algorithms used to verify the
// distributed implementations: BFS-based connected components, Kruskal
// minimum spanning forest, modularity scoring for community detection, and
// MIS validity, next to the MIS priority rule every implementation shares.

// ReferenceComponents labels every node with the smallest node ID in its
// (weakly) connected component using BFS over the symmetrized graph. The
// graph is assumed to be symmetric, as all Kimbap inputs are.
func ReferenceComponents(g *Graph) []NodeID {
	n := g.NumNodes()
	label := make([]NodeID, n)
	for i := range label {
		label[i] = InvalidNode
	}
	queue := make([]NodeID, 0, 1024)
	for start := 0; start < n; start++ {
		if label[start] != InvalidNode {
			continue
		}
		root := NodeID(start)
		label[start] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if label[v] == InvalidNode {
					label[v] = root
					queue = append(queue, v)
				}
			}
		}
	}
	return label
}

// NumComponents counts distinct labels in a component labeling.
func NumComponents(labels []NodeID) int {
	seen := make(map[NodeID]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// ReferenceMSFWeight computes the total weight of a minimum spanning forest
// with Kruskal's algorithm. For symmetrized graphs each undirected edge
// appears twice; both copies have equal weight so the result is unaffected.
func ReferenceMSFWeight(g *Graph) float64 {
	type we struct {
		w        float64
		src, dst NodeID
	}
	edges := make([]we, 0, g.NumEdges())
	for n := 0; n < g.NumNodes(); n++ {
		lo, hi := g.EdgeRange(NodeID(n))
		for e := lo; e < hi; e++ {
			d := g.Dst(e)
			if NodeID(n) < d { // take each undirected edge once
				edges = append(edges, we{g.Weight(e), NodeID(n), d})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = NodeID(i)
	}
	var find func(x NodeID) NodeID
	find = func(x NodeID) NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	total := 0.0
	for _, e := range edges {
		a, b := find(e.src), find(e.dst)
		if a != b {
			parent[a] = b
			total += e.w
		}
	}
	return total
}

// Modularity computes the Newman-Girvan modularity of a community
// assignment on a symmetrized weighted graph. comm[n] is the community of
// node n. Each undirected edge is counted twice (once per direction), as is
// conventional: Q = sum_c (in_c/(2m) - (tot_c/(2m))^2) where 2m is the total
// directed edge weight.
func Modularity(g *Graph, comm []NodeID) float64 {
	twoM := g.TotalWeight()
	if twoM == 0 {
		return 0
	}
	in := make(map[NodeID]float64)  // weight of intra-community directed edges
	tot := make(map[NodeID]float64) // total degree-weight per community
	for n := 0; n < g.NumNodes(); n++ {
		c := comm[n]
		lo, hi := g.EdgeRange(NodeID(n))
		for e := lo; e < hi; e++ {
			w := g.Weight(e)
			tot[c] += w
			if comm[g.Dst(e)] == c {
				in[c] += w
			}
		}
	}
	q := 0.0
	for _, inW := range in {
		q += inW / twoM
	}
	for _, totW := range tot {
		frac := totW / twoM
		q -= frac * frac
	}
	return q
}

// IsValidMIS reports whether set is a maximal independent set of g:
// no two set members are adjacent, and every non-member has a member
// neighbor.
func IsValidMIS(g *Graph, set []bool) bool {
	for n := 0; n < g.NumNodes(); n++ {
		if set[n] {
			for _, v := range g.Neighbors(NodeID(n)) {
				if v != NodeID(n) && set[v] {
					return false // not independent
				}
			}
		} else {
			covered := false
			for _, v := range g.Neighbors(NodeID(n)) {
				if set[v] {
					covered = true
					break
				}
			}
			if !covered && g.Degree(NodeID(n)) > 0 {
				return false // not maximal
			}
			if g.Degree(NodeID(n)) == 0 {
				return false // isolated nodes must be in the set
			}
		}
	}
	return true
}

// MISPriority is the static priority every MIS implementation ranks nodes
// by (lower wins): degree-major, so low-degree nodes join first, with ties
// broken by a pseudo-random bijection of the node's original ID
// (misTieBreak). It lies in
// [degree·(n+1), degree·(n+1)+n), so priorities are distinct — which the
// priority MIS needs, as two adjacent nodes then never join in one round —
// and, being a function of the original ID, identical with vertex
// reordering on or off and on every host count. Priority-ordered greedy
// MIS is unique for a given order, so every implementation selects the
// same set.
func MISPriority(degree, originalID, n uint64) uint64 {
	return degree*(n+1) + misTieBreak(originalID, n)
}

// misTieBreak maps id in [0, n) to a pseudo-random position in [0, n): a
// deterministic bijection, so ties among equal-degree nodes break in an
// order unrelated to the input's numbering. Breaking them on the ID itself
// lets a generator's layout set the schedule: on a row-major grid, where
// every interior node has degree 4, each BSP round of the priority MIS
// could admit only one anti-diagonal (255 rounds on 256×256). Under a
// random order greedy MIS needs O(log² n) rounds w.h.p. (Blelloch,
// Fineman & Shun, SPAA 2012).
//
// The mixer is a bijection on k-bit words, 2^k the smallest power of two
// ≥ n; cycle walking (re-applying it until the value falls below n)
// restricts it to a bijection on [0, n), taking under two steps on
// average since 2^k < 2n.
func misTieBreak(id, n uint64) uint64 {
	if n < 2 {
		return id
	}
	k := bits.Len64(n - 1)
	mask := uint64(1)<<k - 1
	s := (k + 1) / 2
	for x := id; ; {
		// Multiplying by an odd constant and xor-shifting right are each
		// bijections on k-bit words.
		x = (x * 0x9e3779b97f4a7c15) & mask
		x ^= x >> s
		x = (x * 0xbf58476d1ce4e5b9) & mask
		x ^= x >> s
		x = (x * 0x94d049bb133111eb) & mask
		x ^= x >> s
		if x < n {
			return x
		}
	}
}
