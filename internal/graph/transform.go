package graph

// Structural transformations used by partitioning analyses and input
// preparation: induced subgraphs and degree histograms.

// InducedSubgraph returns the subgraph on the given nodes (edges with both
// endpoints in the set) and the mapping from new IDs to original IDs.
// Nodes are renumbered densely in the order given; duplicate entries are
// rejected by panicking, since they would silently alias.
func InducedSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	newID := make(map[NodeID]NodeID, len(nodes))
	for i, n := range nodes {
		if _, dup := newID[n]; dup {
			panic("graph: duplicate node in InducedSubgraph")
		}
		newID[n] = NodeID(i)
	}
	b := NewBuilder(len(nodes))
	weighted := g.Weighted()
	for _, n := range nodes {
		lo, hi := g.EdgeRange(n)
		for e := lo; e < hi; e++ {
			d, ok := newID[g.Dst(e)]
			if !ok {
				continue
			}
			if weighted {
				b.AddWeightedEdge(newID[n], d, g.Weight(e))
			} else {
				b.AddEdge(newID[n], d)
			}
		}
	}
	mapping := make([]NodeID, len(nodes))
	copy(mapping, nodes)
	return b.Build(), mapping
}

// DegreeHistogram returns counts of nodes per out-degree, indexed by
// degree (length MaxDegree+1). Used to verify the power-law shape of
// generated inputs.
func DegreeHistogram(g *Graph) []int {
	hist := make([]int, g.MaxDegree()+1)
	for n := 0; n < g.NumNodes(); n++ {
		hist[g.Degree(NodeID(n))]++
	}
	return hist
}
