// Package partition splits a graph across simulated hosts the way Gluon and
// Kimbap do: edges are assigned to hosts by a partitioning policy, proxy
// nodes are created for edge endpoints, and for each graph node one proxy is
// designated the master (holding the canonical property value) while the
// rest are mirrors.
//
// Three policies from the paper are provided:
//
//   - OEC (outgoing edge-cut): edge u->v lives on owner(u). Structural
//     invariant: mirrors have no outgoing edges.
//   - IEC (incoming edge-cut): edge u->v lives on owner(v). Structural
//     invariant: mirrors have no incoming edges.
//   - CVC (Cartesian vertex-cut, Boman et al.): hosts form a pr x pc grid
//     and edge u->v lives on host (row(owner(u)), col(owner(v))).
//
// Node ownership is by contiguous node ranges balanced by degree, which
// keeps the owner function a binary search over at most numHosts+1
// boundaries (the paper's temporal invariant: the partition never changes
// during execution, so these tables are computed once).
package partition

import (
	"fmt"
	"sort"

	"kimbap/internal/graph"
)

// Policy selects a partitioning strategy.
type Policy string

// The partitioning policies used in the paper's evaluation (§6.1).
const (
	OEC Policy = "oec" // outgoing edge-cut
	IEC Policy = "iec" // incoming edge-cut
	CVC Policy = "cvc" // Cartesian (2-D) vertex-cut
)

// Policies lists all supported policies.
var Policies = []Policy{OEC, IEC, CVC}

// Partitioned is the result of partitioning a graph across hosts.
type Partitioned struct {
	NumHosts   int
	NumNodes   int // global node count
	Policy     Policy
	Hosts      []*HostPartition
	boundaries []graph.NodeID // len NumHosts+1; owner(v) = range containing v
	// ownerTab[v>>ownerBlockShift] = owner of that block's first node.
	// Owner starts there and walks at most the boundaries that fall inside
	// one block — O(1) for the per-entry lookups on the reduce-sync encode
	// path, where a binary search per key is measurable. Built only when
	// NumHosts fits uint8; Owner falls back to the search otherwise.
	ownerTab []uint8
}

// ownerBlockShift sets the owner-table block size (64 nodes/byte: 2 MB of
// table per 128M nodes, far below the CSR arrays for any such graph).
const ownerBlockShift = 6

// HostPartition is one host's local view: a local CSR over local node IDs,
// with masters occupying local IDs [0, NumMasters) and mirrors following.
// Both groups are sorted by global ID.
type HostPartition struct {
	Host       int
	Local      *graph.Graph
	GlobalIDs  []graph.NodeID // local -> global
	NumMasters int

	// MirrorsByOwner[o] lists (as local IDs) this host's mirror nodes whose
	// master lives on host o, sorted by global ID. Used to receive
	// broadcasts and to address reduce messages.
	MirrorsByOwner [][]graph.NodeID
	// MasterSendTo[o] lists (as local IDs) this host's master nodes that
	// have a mirror on host o, sorted by global ID. Used to send
	// broadcasts. MasterSendTo[self] is empty.
	MasterSendTo [][]graph.NodeID

	// Structural invariants exploited by pinned-mirror optimizations.
	MirrorsHaveNoOutEdges bool
	MirrorsHaveNoInEdges  bool

	mirrorGlobals []graph.NodeID // GlobalIDs[NumMasters:], kept for accounting
	// localTab is the dense global→local translation table: localTab[g] =
	// local+1, 0 for absent. It replaces the old per-lookup binary search
	// over mirrorGlobals with one array index — LocalID sits on the NPM
	// hot paths (async node-slot resolution, payload addressing), where a
	// search per access is measurable. One int32 per global node per host.
	localTab []int32
	part     *Partitioned
}

// PartitionSerial is the retained single-threaded reference for Partition.
// The equivalence tests compare its output — boundaries, GlobalIDs, local
// CSR, MirrorsByOwner, MasterSendTo — bit for bit against the parallel
// pipeline at every worker count.
func PartitionSerial(g *graph.Graph, numHosts int, policy Policy) *Partitioned {
	if numHosts < 1 {
		panic("partition: numHosts must be >= 1")
	}
	p := &Partitioned{
		NumHosts:   numHosts,
		NumNodes:   g.NumNodes(),
		Policy:     policy,
		boundaries: degreeBalancedBoundaries(g, numHosts),
	}
	p.buildOwnerTab()
	pc := edgeGrid(policy, numHosts)

	// Pass 1: count edges per host and collect the set of non-master
	// endpoints (mirrors) appearing on each host, noting whether any edge
	// leaves or enters a mirror (the pinned-mirror invariant flags).
	type hostEdges struct {
		edges               []graph.Edge
		mirrors             map[graph.NodeID]struct{}
		mirrorOut, mirrorIn bool
	}
	hosts := make([]hostEdges, numHosts)
	for h := range hosts {
		hosts[h].mirrors = make(map[graph.NodeID]struct{})
	}
	for n := 0; n < g.NumNodes(); n++ {
		src := graph.NodeID(n)
		lo, hi := g.EdgeRange(src)
		for e := lo; e < hi; e++ {
			dst := g.Dst(e)
			os, od := p.Owner(src), p.Owner(dst)
			h := edgeHost(os, od, pc)
			hosts[h].edges = append(hosts[h].edges,
				graph.Edge{Src: src, Dst: dst, Weight: g.Weight(e)})
			if os != h {
				hosts[h].mirrors[src] = struct{}{}
				hosts[h].mirrorOut = true
			}
			if od != h {
				hosts[h].mirrors[dst] = struct{}{}
				hosts[h].mirrorIn = true
			}
		}
	}

	// Pass 2: build each host's local graph and proxy metadata.
	p.Hosts = make([]*HostPartition, numHosts)
	for h := 0; h < numHosts; h++ {
		hp := buildHostPartition(p, g, h, hosts[h].edges, hosts[h].mirrors)
		hp.MirrorsHaveNoOutEdges = !hosts[h].mirrorOut
		hp.MirrorsHaveNoInEdges = !hosts[h].mirrorIn
		p.Hosts[h] = hp
	}

	// Pass 3: exchange mirror lists (direct computation; in a real cluster
	// this is the partitioning-time metadata exchange).
	for h := 0; h < numHosts; h++ {
		p.Hosts[h].buildMirrorsByOwner()
	}
	for h := 0; h < numHosts; h++ {
		p.Hosts[h].buildMasterSendTo()
	}
	return p
}

// buildMirrorsByOwner buckets this host's mirrors (ascending local, hence
// ascending global, IDs) by the host owning their master.
func (hp *HostPartition) buildMirrorsByOwner() {
	p := hp.part
	hp.MirrorsByOwner = make([][]graph.NodeID, p.NumHosts)
	for _, local := range hp.mirrorLocalIDs() {
		o := p.Owner(hp.GlobalIDs[local])
		hp.MirrorsByOwner[o] = append(hp.MirrorsByOwner[o], local)
	}
}

// buildMasterSendTo derives this host's broadcast lists from every other
// host's MirrorsByOwner; all hosts' buildMirrorsByOwner must have completed
// first.
func (hp *HostPartition) buildMasterSendTo() {
	p := hp.part
	hp.MasterSendTo = make([][]graph.NodeID, p.NumHosts)
	for o := 0; o < p.NumHosts; o++ {
		if o == hp.Host {
			continue
		}
		op := p.Hosts[o]
		for _, mirrorLocal := range op.MirrorsByOwner[hp.Host] {
			global := op.GlobalIDs[mirrorLocal]
			masterLocal, ok := hp.LocalID(global)
			if !ok || !hp.IsMaster(masterLocal) {
				panic("partition: mirror without master proxy")
			}
			hp.MasterSendTo[o] = append(hp.MasterSendTo[o], masterLocal)
		}
	}
}

// Owner returns the host that holds the master proxy of global node v.
func (p *Partitioned) Owner(v graph.NodeID) int {
	// boundaries[h] <= v < boundaries[h+1]  =>  owner is h.
	if p.ownerTab != nil {
		h := int(p.ownerTab[v>>ownerBlockShift])
		for p.boundaries[h+1] <= v {
			h++
		}
		return h
	}
	return sort.Search(len(p.boundaries)-1, func(h int) bool {
		return p.boundaries[h+1] > v
	})
}

func (p *Partitioned) buildOwnerTab() {
	if p.NumHosts > 256 || p.NumNodes == 0 {
		return
	}
	nb := (p.NumNodes + (1 << ownerBlockShift) - 1) >> ownerBlockShift
	tab := make([]uint8, nb)
	h := 0
	for b := range tab {
		v := graph.NodeID(b << ownerBlockShift)
		for p.boundaries[h+1] <= v {
			h++
		}
		tab[b] = uint8(h)
	}
	p.ownerTab = tab
}

// MasterRange returns the global-ID range [lo, hi) of masters on host h.
func (p *Partitioned) MasterRange(h int) (lo, hi graph.NodeID) {
	return p.boundaries[h], p.boundaries[h+1]
}

// degreeBalancedBoundaries computes the master-range boundaries: len
// numHosts+1, boundaries[h] ≤ v < boundaries[h+1] makes host h the owner
// of node v. Each node weighs degree+1 (so empty nodes also spread), and
// range h ends at the first node where the accumulated weight reaches
// h/numHosts of the total.
func degreeBalancedBoundaries(g *graph.Graph, numHosts int) []graph.NodeID {
	n := g.NumNodes()
	total := g.NumEdges() + int64(n)
	bounds := make([]graph.NodeID, numHosts+1)
	bounds[numHosts] = graph.NodeID(n)
	target := total / int64(numHosts)
	h := 1
	var acc int64
	for v := 0; v < n && h < numHosts; v++ {
		acc += int64(g.Degree(graph.NodeID(v))) + 1
		if acc >= target*int64(h) {
			bounds[h] = graph.NodeID(v + 1)
			h++
		}
	}
	for ; h < numHosts; h++ {
		bounds[h] = graph.NodeID(n)
	}
	return bounds
}

// edgeGrid returns the width pc of the host grid that places policy's
// edges: edge u->v lives on host edgeHost(owner(u), owner(v), pc). OEC is
// the numHosts x 1 grid (the source's owner), IEC the 1 x numHosts grid
// (the destination's owner), CVC the most square grid.
func edgeGrid(policy Policy, numHosts int) int {
	switch policy {
	case OEC:
		return 1
	case IEC:
		return numHosts
	case CVC:
		_, pc := gridShape(numHosts)
		return pc
	default:
		panic(fmt.Sprintf("partition: unknown policy %q", policy))
	}
}

// edgeHost places an edge whose endpoints' masters live on srcOwner and
// dstOwner: row srcOwner/pc and column dstOwner%pc of the host grid.
func edgeHost(srcOwner, dstOwner, pc int) int {
	return srcOwner/pc*pc + dstOwner%pc
}

// gridShape factors numHosts into the most square pr x pc grid, with
// pr the largest factor <= sqrt(numHosts).
func gridShape(numHosts int) (pr, pc int) {
	pr = 1
	for f := 2; f*f <= numHosts; f++ {
		if numHosts%f == 0 {
			pr = f
		}
	}
	return pr, numHosts / pr
}

func buildHostPartition(p *Partitioned, g *graph.Graph, h int,
	edges []graph.Edge, mirrorSet map[graph.NodeID]struct{}) *HostPartition {

	lo, hi := p.MasterRange(h)
	numMasters := int(hi - lo)
	mirrors := make([]graph.NodeID, 0, len(mirrorSet))
	for v := range mirrorSet {
		mirrors = append(mirrors, v)
	}
	sort.Slice(mirrors, func(i, j int) bool { return mirrors[i] < mirrors[j] })

	hp := &HostPartition{
		Host:          h,
		NumMasters:    numMasters,
		GlobalIDs:     make([]graph.NodeID, 0, numMasters+len(mirrors)),
		mirrorGlobals: mirrors,
		part:          p,
	}
	for v := lo; v < hi; v++ {
		hp.GlobalIDs = append(hp.GlobalIDs, v)
	}
	hp.GlobalIDs = append(hp.GlobalIDs, mirrors...)
	hp.buildLocalTab()

	b := graph.NewBuilder(len(hp.GlobalIDs))
	weighted := g.Weighted()
	for _, e := range edges {
		ls, ok1 := hp.LocalID(e.Src)
		ld, ok2 := hp.LocalID(e.Dst)
		if !ok1 || !ok2 {
			panic("partition: edge endpoint has no proxy")
		}
		if weighted {
			b.AddWeightedEdge(ls, ld, e.Weight)
		} else {
			b.AddEdge(ls, ld)
		}
	}
	hp.Local = b.Build()
	return hp
}

// buildLocalTab fills the dense global→local table from GlobalIDs. Called
// once at partition time, right after GlobalIDs is assembled (the edge
// translation loops already go through LocalID).
func (hp *HostPartition) buildLocalTab() {
	tab := make([]int32, hp.part.NumNodes)
	for l, g := range hp.GlobalIDs {
		tab[g] = int32(l) + 1
	}
	hp.localTab = tab
}

// LocalID translates a global node ID to this host's local ID: one dense
// table index, O(1) for masters and mirrors alike (the old path binary-
// searched the sorted mirror list on every miss of the master range).
func (hp *HostPartition) LocalID(global graph.NodeID) (graph.NodeID, bool) {
	if int(global) < len(hp.localTab) {
		if s := hp.localTab[global]; s != 0 {
			return graph.NodeID(s - 1), true
		}
	}
	return graph.InvalidNode, false
}

// TranslationFootprint returns the bytes this host holds for ID
// translation: the dense global→local table, one int32 per global node.
// The NPM memory reporter folds this into the per-host footprint so the
// §14 table stays visible in the accounting.
func (hp *HostPartition) TranslationFootprint() int64 {
	return int64(len(hp.localTab)) * 4
}

// GlobalID translates a local node ID back to the global ID.
func (hp *HostPartition) GlobalID(local graph.NodeID) graph.NodeID {
	return hp.GlobalIDs[local]
}

// IsMaster reports whether a local node is this host's master proxy.
func (hp *HostPartition) IsMaster(local graph.NodeID) bool {
	return int(local) < hp.NumMasters
}

// NumLocal returns the number of proxies (masters + mirrors) on this host.
func (hp *HostPartition) NumLocal() int { return len(hp.GlobalIDs) }

// NumMirrors returns the number of mirror proxies on this host.
func (hp *HostPartition) NumMirrors() int { return len(hp.mirrorGlobals) }

// Owner returns the master host of a global node (convenience passthrough).
func (hp *HostPartition) Owner(global graph.NodeID) int { return hp.part.Owner(global) }

// NumGlobalNodes returns the global node count of the partitioned graph.
func (hp *HostPartition) NumGlobalNodes() int { return hp.part.NumNodes }

// NumHosts returns the number of hosts in the partitioning.
func (hp *HostPartition) NumHosts() int { return hp.part.NumHosts }

// MasterRangeGlobal returns the global master range of this host.
func (hp *HostPartition) MasterRangeGlobal() (lo, hi graph.NodeID) {
	return hp.part.MasterRange(hp.Host)
}

// MasterRangeOf returns the global master range of host h. The partition is
// temporally invariant, so senders can compute a receiver's thread-range
// layout from it — the basis for addressing scatter payload sections at the
// receiver's gather threads.
func (hp *HostPartition) MasterRangeOf(h int) (lo, hi graph.NodeID) {
	return hp.part.MasterRange(h)
}

func (hp *HostPartition) mirrorLocalIDs() []graph.NodeID {
	out := make([]graph.NodeID, len(hp.mirrorGlobals))
	for i := range out {
		out[i] = graph.NodeID(hp.NumMasters + i)
	}
	return out
}

// ReplicationFactor returns total proxies divided by global nodes, a
// standard partition-quality metric.
func (p *Partitioned) ReplicationFactor() float64 {
	total := 0
	for _, hp := range p.Hosts {
		total += hp.NumLocal()
	}
	if p.NumNodes == 0 {
		return 0
	}
	return float64(total) / float64(p.NumNodes)
}
