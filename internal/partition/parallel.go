package partition

import (
	"sort"

	"kimbap/internal/graph"
	"kimbap/internal/par"
)

// Parallel partitioning pipeline. Each host's local CSR is written once,
// straight from the global CSR, and the output is bit-identical to
// PartitionSerial. The global CSR splits into static source-row ranges
// balanced by edges+nodes, so one worker owns every write keyed by its
// rows; Owner(src) is looked up once per row, Owner(dst) once per edge.
//
//  1. Count. Each edge adds 1 to its host's out-degree of src, counted in
//     that host's localTab (one int32 per global node) before it becomes
//     the translation table, and sets the host's mirror bits for
//     endpoints it does not own (Bitset.Set is atomic; a union cannot
//     depend on scheduling). The pass also records whether any edge on a
//     host enters a mirror: the MirrorsHaveNoInEdges flag.
//  2. Local ID space, one host per worker: masters, then the mirror
//     Bitset's members in ascending global ID (the order the serial
//     reference gets by sorting map keys). An exclusive scan of the
//     degrees in local-ID order gives the CSR offsets (a mirror with a
//     degree clears MirrorsHaveNoOutEdges), and localTab[g] is then
//     overwritten with local+1.
//  3. Scatter. A re-scan of the rows writes each edge's local destination
//     and weight into its host's CSR at a per-(host, local src) cursor;
//     row ownership makes every slot single-writer. Each host's CSR is
//     then adopted by graph.AdoptCSR, which sorts the rows by (dst,
//     weight) with the whole pool — a total order, so scatter order
//     cannot show.
//  4. Mirror-list exchange runs one host per worker, with a barrier
//     between the MirrorsByOwner and MasterSendTo halves (the latter reads
//     every other host's former).
//
// At one host the pipeline would copy g edge for edge, so it is skipped:
// singleHost adopts g as the host's local CSR.

// Partition splits g across numHosts hosts using the given policy, using
// all cores. Output is bit-identical to PartitionSerial.
//
//kimbap:deterministic
func Partition(g *graph.Graph, numHosts int, policy Policy) *Partitioned {
	return PartitionWorkers(g, numHosts, policy, 0)
}

// PartitionWorkers is Partition with an explicit worker count (0 = all
// cores). Output is identical at every worker count.
//
//kimbap:deterministic
func PartitionWorkers(g *graph.Graph, numHosts int, policy Policy, workers int) *Partitioned {
	if numHosts < 1 {
		panic("partition: numHosts must be >= 1")
	}
	if numHosts == 1 {
		return singleHost(g, policy)
	}
	numNodes := g.NumNodes()
	workers = par.Resolve(workers)
	p := &Partitioned{
		NumHosts:   numHosts,
		NumNodes:   numNodes,
		Policy:     policy,
		boundaries: degreeBalancedBoundaries(g, numHosts),
	}
	p.buildOwnerTab()
	pc := edgeGrid(policy, numHosts)
	col := make([]int, numHosts) // col[o] = o % pc, off the per-edge path
	for o := range col {
		col[o] = o % pc
	}
	rows := rowRanges(g, workers)

	// Step 1: per-host degrees (in the future translation tables), mirror
	// bits, and per-worker "an edge entered a mirror" flags.
	tabs := make([][]int32, numHosts)
	mirrors := make([]*par.Bitset, numHosts)
	for h := range tabs {
		tabs[h] = make([]int32, numNodes)
		mirrors[h] = par.NewBitset(numNodes)
	}
	mirrorIn := make([]bool, workers*numHosts)
	//kimbap:conflictfree
	par.Do(workers, func(w int) {
		in := mirrorIn[w*numHosts : (w+1)*numHosts]
		for v := rows[w]; v < rows[w+1]; v++ {
			src := graph.NodeID(v)
			os := p.Owner(src)
			row := os / pc * pc // the edge's host is edgeHost(os, od, pc)
			for _, dst := range g.Neighbors(src) {
				od := p.Owner(dst)
				h := row + col[od]
				tabs[h][v]++
				if os != h && tabs[h][v] == 1 {
					mirrors[h].Set(v)
				}
				if od != h {
					mirrors[h].Set(int(dst))
					if !in[h] { // store once: workers' flags share a cache line
						in[h] = true
					}
				}
			}
		}
	})

	// Step 2: fix each host's local ID space and CSR offsets; allocate its
	// edge arrays at their exact size.
	weighted := g.Weighted()
	p.Hosts = make([]*HostPartition, numHosts)
	offsets := make([][]int64, numHosts)
	dsts := make([][]graph.NodeID, numHosts)
	weights := make([][]float64, numHosts)
	par.Dynamic(workers, numHosts, 1, func(lo, hi int) {
		for h := lo; h < hi; h++ {
			hp, off := newHostFromDegrees(p, h, tabs[h], mirrors[h])
			for w := 0; w < workers; w++ {
				if mirrorIn[w*numHosts+h] {
					hp.MirrorsHaveNoInEdges = false
				}
			}
			p.Hosts[h], offsets[h] = hp, off
			m := off[len(off)-1]
			dsts[h] = make([]graph.NodeID, m)
			// A host without edges stays unweighted, as a Builder
			// given none does in the serial reference.
			if weighted && m > 0 {
				weights[h] = make([]float64, m)
			}
		}
	})

	// Step 3: scatter local IDs. Worker w owns rows [rows[w], rows[w+1]),
	// hence every (host, local src) slot range those rows fill; the cursor
	// of (h, src) starts at the first edge of src on h (stamp[h] marks the
	// row it belongs to).
	//kimbap:conflictfree
	par.Do(workers, func(w int) {
		cursor := make([]int64, numHosts)
		stamp := make([]int, numHosts)
		for v := rows[w]; v < rows[w+1]; v++ {
			src := graph.NodeID(v)
			row := p.Owner(src) / pc * pc
			ws := g.EdgeWeights(src)
			for i, dst := range g.Neighbors(src) {
				od := p.Owner(dst)
				h := row + col[od]
				if stamp[h] != v+1 {
					stamp[h] = v + 1
					cursor[h] = offsets[h][tabs[h][v]-1]
				}
				at := cursor[h]
				cursor[h] = at + 1
				if od == h { // a master: local IDs follow global ones
					dsts[h][at] = dst - p.boundaries[h]
				} else {
					dsts[h][at] = graph.NodeID(tabs[h][dst] - 1)
				}
				if ws != nil {
					weights[h][at] = ws[i]
				}
			}
		}
	})

	// Sort each host's rows with the whole pool, one host at a time.
	for h, hp := range p.Hosts {
		hp.Local = graph.AdoptCSR(offsets[h], dsts[h], weights[h], workers)
	}

	// Step 4: mirror-list exchange, one host per worker per half.
	par.Dynamic(workers, numHosts, 1, func(lo, hi int) {
		for h := lo; h < hi; h++ {
			p.Hosts[h].buildMirrorsByOwner()
		}
	})
	par.Dynamic(workers, numHosts, 1, func(lo, hi int) {
		for h := lo; h < hi; h++ {
			p.Hosts[h].buildMasterSendTo()
		}
	})
	return p
}

// singleHost is the one-host partition: every node is a master at its own
// ID and there are no mirrors, so the local CSR the pipeline above would
// write is g's, row for row. Every Graph constructor already sorts each
// row by (dst, weight) and no Graph method mutates it, so the host adopts
// g itself (DESIGN.md §11) and allocates only its node-sized tables.
func singleHost(g *graph.Graph, policy Policy) *Partitioned {
	edgeGrid(policy, 1) // rejects an unknown policy, as the pipeline does
	n := g.NumNodes()
	p := &Partitioned{
		NumHosts:   1,
		NumNodes:   n,
		Policy:     policy,
		boundaries: []graph.NodeID{0, graph.NodeID(n)},
	}
	p.buildOwnerTab()
	ids := make([]graph.NodeID, n)
	tab := make([]int32, n)
	for v := range ids {
		ids[v] = graph.NodeID(v)
		tab[v] = int32(v) + 1
	}
	local := g
	if g.NumEdges() == 0 {
		// A host without edges is unweighted, as a Builder given none
		// makes it in the serial reference.
		local = graph.NewBuilder(n).Build()
	}
	p.Hosts = []*HostPartition{{
		Local:                 local,
		GlobalIDs:             ids,
		NumMasters:            n,
		MirrorsByOwner:        make([][]graph.NodeID, 1),
		MasterSendTo:          make([][]graph.NodeID, 1),
		MirrorsHaveNoOutEdges: true,
		MirrorsHaveNoInEdges:  true,
		mirrorGlobals:         ids[n:],
		localTab:              tab,
		part:                  p,
	}}
	return p
}

// rowRanges splits g's source rows into one contiguous range per worker,
// balanced by edges+nodes: worker w owns rows [r[w], r[w+1]).
func rowRanges(g *graph.Graph, workers int) []int {
	n := g.NumNodes()
	total := g.NumEdges() + int64(n)
	r := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		r[w] = sort.Search(n, func(v int) bool {
			lo, _ := g.EdgeRange(graph.NodeID(v))
			return lo+int64(v) >= target
		})
	}
	r[workers] = n
	return r
}

// newHostFromDegrees builds host h's local ID space from its step-1 state:
// masters, then the mirrors in mirrorSet ascending. tab holds h's
// out-degree per global node on entry and the global→local table
// (local+1) on return, and the returned offsets are the local CSR's.
func newHostFromDegrees(p *Partitioned, h int, tab []int32, mirrorSet *par.Bitset) (*HostPartition, []int64) {
	lo, hi := p.MasterRange(h)
	numMasters := int(hi - lo)
	ids := make([]graph.NodeID, numMasters, numMasters+mirrorSet.Count())
	for i := range ids {
		ids[i] = lo + graph.NodeID(i)
	}
	mirrorSet.ForEachSet(func(v int) { ids = append(ids, graph.NodeID(v)) })

	hp := &HostPartition{
		Host:                  h,
		NumMasters:            numMasters,
		GlobalIDs:             ids,
		mirrorGlobals:         ids[numMasters:],
		localTab:              tab,
		part:                  p,
		MirrorsHaveNoOutEdges: true,
		MirrorsHaveNoInEdges:  true,
	}
	offsets := make([]int64, len(ids)+1)
	for l, v := range ids {
		d := tab[v]
		if d > 0 && l >= numMasters {
			hp.MirrorsHaveNoOutEdges = false
		}
		offsets[l+1] = offsets[l] + int64(d)
		tab[v] = int32(l) + 1
	}
	return hp, offsets
}
