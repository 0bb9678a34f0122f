package graph

// Accumulator sums float64 values keyed by node ID: the community-detection
// move phases' per-thread k_{n→c} table and Contract's row builder. A dense
// slot table over [0, n) — slot[k] = index into the key and value lists + 1,
// 0 for untouched, the cacheSlot idiom of DESIGN.md §14 — fronts a
// first-touch key list and a parallel value list. Add is one index, keys
// come back in first-touch order, and Reset clears only the touched slots,
// so a reused Accumulator allocates nothing once its lists have grown to the
// largest key set it has held.
type Accumulator struct {
	slot []int32
	keys []NodeID
	vals []float64
}

// NewAccumulator returns an empty Accumulator for keys in [0, n).
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{slot: make([]int32, n)}
}

// NewAccumulators returns k empty Accumulators for keys in [0, n), one per
// worker thread.
func NewAccumulators(k, n int) []*Accumulator {
	accs := make([]*Accumulator, k)
	for i := range accs {
		accs[i] = NewAccumulator(n)
	}
	return accs
}

// Add adds w to key k's sum. Each key's sum accumulates in call order.
func (a *Accumulator) Add(k NodeID, w float64) {
	if s := a.slot[k]; s != 0 {
		a.vals[s-1] += w
		return
	}
	a.keys = append(a.keys, k)
	a.vals = append(a.vals, w)
	a.slot[k] = int32(len(a.keys))
}

// Get returns key k's sum, 0 if k was not added since the last Reset.
func (a *Accumulator) Get(k NodeID) float64 {
	if s := a.slot[k]; s != 0 {
		return a.vals[s-1]
	}
	return 0
}

// Keys returns the keys added since the last Reset, in first-touch order.
// The slice is valid until the next Add or Reset.
func (a *Accumulator) Keys() []NodeID { return a.keys }

// Vals returns the sums parallel to Keys.
func (a *Accumulator) Vals() []float64 { return a.vals }

// Reset empties the accumulator, clearing only the slots it touched.
func (a *Accumulator) Reset() {
	for _, k := range a.keys {
		a.slot[k] = 0
	}
	a.keys = a.keys[:0]
	a.vals = a.vals[:0]
}

// Contract builds the coarse graph of a clustering of g: one node per
// distinct label in assign, numbered in order of first appearance (by node
// ID), with the weights of all edges between two clusters summed into one
// edge and intra-cluster weight kept as a self-loop, so modularity is
// preserved across levels. Labels must be node IDs of g. remap[c] is label
// c's coarse node, InvalidNode for a label assign does not use.
//
// Nodes are counting-sorted by coarse ID and each cluster's members folded,
// in ascending node order, through one Accumulator. Every (source,
// destination) weight therefore sums the fine edges in node-then-edge order,
// and each row is sorted by destination as Builder.Build sorts it.
//
//kimbap:deterministic
func Contract(g *Graph, assign []NodeID) (*Graph, []NodeID) {
	n := g.NumNodes()
	remap := make([]NodeID, n)
	for i := range remap {
		remap[i] = InvalidNode
	}
	k := 0
	for _, c := range assign {
		if remap[c] == InvalidNode {
			remap[c] = NodeID(k)
			k++
		}
	}
	// start[cs] .. start[cs+1] bound cluster cs's members in members.
	start := make([]int, k+1)
	for _, c := range assign {
		start[remap[c]+1]++
	}
	for cs := 1; cs <= k; cs++ {
		start[cs] += start[cs-1]
	}
	members := make([]NodeID, n)
	next := make([]int, k)
	copy(next, start)
	for v, c := range assign {
		cs := remap[c]
		members[next[cs]] = NodeID(v)
		next[cs]++
	}

	out := &Graph{offsets: make([]int64, k+1)}
	var weights []float64
	acc := NewAccumulator(k)
	for cs := 0; cs < k; cs++ {
		for _, v := range members[start[cs]:start[cs+1]] {
			lo, hi := g.EdgeRange(v)
			for e := lo; e < hi; e++ {
				acc.Add(remap[assign[g.Dst(e)]], g.Weight(e))
			}
		}
		row := len(out.dsts)
		out.dsts = append(out.dsts, acc.Keys()...)
		weights = append(weights, acc.Vals()...)
		sortDstWeight(out.dsts[row:], weights[row:])
		out.offsets[cs+1] = int64(len(out.dsts))
		acc.Reset()
	}
	if len(out.dsts) > 0 {
		out.weights = weights
	}
	return out, remap
}
