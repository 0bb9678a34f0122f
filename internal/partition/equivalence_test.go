package partition

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

// The parallel partitioner (parallel.go) promises the same Partitioned —
// boundaries, GlobalIDs, translation table, local CSR, MirrorsByOwner,
// MasterSendTo, structural invariant flags — as the serial reference, bit
// for bit, at every worker count. The runtime layers (reduce-sync
// addressing, pinned mirrors) key off these tables, so "roughly equal" is
// not enough.

func requireSameGraph(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() ||
		want.Weighted() != got.Weighted() {
		t.Fatalf("%s: shape differs: %d/%d nodes, %d/%d edges",
			label, want.NumNodes(), got.NumNodes(), want.NumEdges(), got.NumEdges())
	}
	for n := 0; n < want.NumNodes(); n++ {
		v := graph.NodeID(n)
		if !reflect.DeepEqual(want.Neighbors(v), got.Neighbors(v)) {
			t.Fatalf("%s: node %d neighbors differ:\nwant %v\ngot  %v",
				label, n, want.Neighbors(v), got.Neighbors(v))
		}
		if !reflect.DeepEqual(want.EdgeWeights(v), got.EdgeWeights(v)) {
			t.Fatalf("%s: node %d weights differ", label, n)
		}
	}
}

func requireSamePartitioned(t *testing.T, want, got *Partitioned) {
	t.Helper()
	if !reflect.DeepEqual(want.boundaries, got.boundaries) {
		t.Fatalf("boundaries differ: want %v got %v", want.boundaries, got.boundaries)
	}
	if !reflect.DeepEqual(want.ownerTab, got.ownerTab) {
		t.Fatal("owner tables differ")
	}
	if len(want.Hosts) != len(got.Hosts) {
		t.Fatalf("host counts differ: %d vs %d", len(want.Hosts), len(got.Hosts))
	}
	for h := range want.Hosts {
		w, g := want.Hosts[h], got.Hosts[h]
		label := fmt.Sprintf("host %d", h)
		if w.NumMasters != g.NumMasters {
			t.Fatalf("%s: NumMasters %d vs %d", label, w.NumMasters, g.NumMasters)
		}
		if !reflect.DeepEqual(w.GlobalIDs, g.GlobalIDs) {
			t.Fatalf("%s: GlobalIDs differ:\nwant %v\ngot  %v", label, w.GlobalIDs, g.GlobalIDs)
		}
		if !reflect.DeepEqual(w.mirrorGlobals, g.mirrorGlobals) {
			t.Fatalf("%s: mirror lists differ", label)
		}
		if !reflect.DeepEqual(w.localTab, g.localTab) {
			t.Fatalf("%s: global->local tables differ", label)
		}
		requireSameGraph(t, label+" local CSR", w.Local, g.Local)
		if !mirrorTablesEqual(w.MirrorsByOwner, g.MirrorsByOwner) {
			t.Fatalf("%s: MirrorsByOwner differ:\nwant %v\ngot  %v",
				label, w.MirrorsByOwner, g.MirrorsByOwner)
		}
		if !mirrorTablesEqual(w.MasterSendTo, g.MasterSendTo) {
			t.Fatalf("%s: MasterSendTo differ:\nwant %v\ngot  %v",
				label, w.MasterSendTo, g.MasterSendTo)
		}
		if w.MirrorsHaveNoOutEdges != g.MirrorsHaveNoOutEdges ||
			w.MirrorsHaveNoInEdges != g.MirrorsHaveNoInEdges {
			t.Fatalf("%s: invariant flags differ", label)
		}
		requireInvariantFlags(t, g)
	}
}

// requireInvariantFlags recomputes the pinned-mirror flags by scanning the
// local CSR. Both pipelines derive them from their edge-assignment pass,
// so the comparison above alone would not catch a shared mistake.
func requireInvariantFlags(t *testing.T, hp *HostPartition) {
	t.Helper()
	noOut, noIn := true, true
	for n := 0; n < hp.Local.NumNodes(); n++ {
		if n >= hp.NumMasters && hp.Local.Degree(graph.NodeID(n)) > 0 {
			noOut = false
		}
		for _, v := range hp.Local.Neighbors(graph.NodeID(n)) {
			if !hp.IsMaster(v) {
				noIn = false
			}
		}
	}
	if hp.MirrorsHaveNoOutEdges != noOut || hp.MirrorsHaveNoInEdges != noIn {
		t.Fatalf("host %d: flags out=%v in=%v, local CSR says out=%v in=%v", hp.Host,
			hp.MirrorsHaveNoOutEdges, hp.MirrorsHaveNoInEdges, noOut, noIn)
	}
}

// mirrorTablesEqual treats a nil bucket and an empty bucket as the same
// list: the serial path appends into nil slices, the parallel path may
// pre-size, and no consumer distinguishes the two.
func mirrorTablesEqual(a, b [][]graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// multigraph is a weighted graph that no generator makes: self-loops,
// parallel edges with different weights, and isolated nodes (every
// multiple of 5, and the last quarter of the ID space).
func multigraph() *graph.Graph {
	const n = 48
	b := graph.NewBuilder(n)
	for u := 0; u < 3*n/4; u++ {
		if u%5 == 0 {
			continue
		}
		src := graph.NodeID(u)
		if u%3 == 0 {
			b.AddWeightedEdge(src, src, 2)
		}
		for k := 1; k <= 3; k++ {
			dst := graph.NodeID((u*7 + k*11) % (3*n/4 - 1))
			if dst%5 == 0 {
				dst++
			}
			b.AddWeightedEdge(src, dst, float64(k))
			if k == 2 {
				b.AddWeightedEdge(src, dst, 0.5)
			}
		}
	}
	return b.Build()
}

func TestParallelPartitionMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":  gen.Grid(10, 10, true, 1),
		"rmat":  gen.RMAT(8, 8, true, 2),
		"star":  gen.Star(64),
		"chain": gen.Chain(50, false, 3),
		"multi": multigraph(),
		// Fewer nodes than the larger host counts: some master ranges
		// are empty, and so are those hosts' CSRs.
		"tiny": gen.Chain(5, true, 4),
	}
	for name, g := range graphs {
		for _, pol := range Policies {
			for _, hosts := range []int{1, 2, 3, 4, 8} {
				want := PartitionSerial(g, hosts, pol)
				for _, workers := range []int{1, 2, 4, 8} {
					t.Run(fmt.Sprintf("%s/%s/hosts=%d/workers=%d", name, pol, hosts, workers),
						func(t *testing.T) {
							requireSamePartitioned(t, want,
								PartitionWorkers(g, hosts, pol, workers))
						})
				}
			}
		}
	}
}

// relabel returns g with node v renamed perm[v]; every edge keeps its
// weight.
func relabel(g *graph.Graph, perm []graph.NodeID) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		lo, hi := g.EdgeRange(graph.NodeID(v))
		for e := lo; e < hi; e++ {
			if g.Weighted() {
				b.AddWeightedEdge(perm[v], perm[g.Dst(e)], g.Weight(e))
			} else {
				b.AddEdge(perm[v], perm[g.Dst(e)])
			}
		}
	}
	return b.BuildSerial()
}

// hubsFirst returns the permutation that lays out each range
// [bounds[i], bounds[i+1]) in descending degree, ties by ID.
func hubsFirst(g *graph.Graph, bounds []graph.NodeID) []graph.NodeID {
	perm := make([]graph.NodeID, g.NumNodes())
	for i := 0; i+1 < len(bounds); i++ {
		ids := make([]graph.NodeID, 0, bounds[i+1]-bounds[i])
		for v := bounds[i]; v < bounds[i+1]; v++ {
			ids = append(ids, v)
		}
		slices.SortStableFunc(ids, func(a, b graph.NodeID) int { return g.Degree(b) - g.Degree(a) })
		for k, v := range ids {
			perm[v] = bounds[i] + graph.NodeID(k)
		}
	}
	return perm
}

// The partitioner takes node IDs as ingested, whatever their layout. An
// R-MAT renumbered hubs-first — over the whole ID space, or within each
// degree-balanced master range — concentrates the degree weight at the
// front of the ranges the boundary walk splits, and the parallel pipeline
// must still match the serial reference bit for bit.
func TestParallelPartitionRelabeledMatchesSerial(t *testing.T) {
	g := gen.RMAT(9, 8, true, 5)
	for _, hosts := range []int{1, 2, 4, 8} {
		layouts := []struct {
			name   string
			bounds []graph.NodeID
		}{
			{"degree", []graph.NodeID{0, graph.NodeID(g.NumNodes())}},
			{"blocked-degree", degreeBalancedBoundaries(g, hosts)},
		}
		for _, l := range layouts {
			rg := relabel(g, hubsFirst(g, l.bounds))
			for _, pol := range Policies {
				want := PartitionSerial(rg, hosts, pol)
				checkInvariants(t, rg, want)
				for _, workers := range []int{1, 2, 4, 8} {
					t.Run(fmt.Sprintf("%s/%s/hosts=%d/workers=%d", l.name, pol, hosts, workers),
						func(t *testing.T) {
							requireSamePartitioned(t, want,
								PartitionWorkers(rg, hosts, pol, workers))
						})
				}
			}
		}
	}
}

func TestParallelPartitionEmptyGraph(t *testing.T) {
	var g graph.Graph
	for _, workers := range []int{1, 4} {
		p := PartitionWorkers(&g, 3, OEC, workers)
		if len(p.Hosts) != 3 {
			t.Fatalf("workers=%d: %d hosts", workers, len(p.Hosts))
		}
		for _, hp := range p.Hosts {
			if hp.NumLocal() != 0 || hp.Local.NumEdges() != 0 {
				t.Fatalf("workers=%d: empty graph grew proxies", workers)
			}
		}
	}
}

// At one host the partition is the identity: every node is a master at its
// own ID, there are no mirrors, and the host's local CSR is the input
// graph itself. The result must still equal the serial reference, which
// rebuilds the CSR edge for edge — including a weighted graph without
// edges, whose host CSR the reference builds unweighted.
func TestSingleHostPartitionIsIdentity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"weighted":          multigraph(),
		"unweighted":        gen.RMAT(8, 8, false, 2),
		"weighted-edgeless": graph.AdoptCSR(make([]int64, 8), []graph.NodeID{}, []float64{}, 1),
		"empty":             new(graph.Graph),
	}
	if !graphs["weighted-edgeless"].Weighted() {
		t.Fatal("the edgeless input graph is not weighted; the case tests nothing")
	}
	for name, g := range graphs {
		for _, pol := range Policies {
			t.Run(fmt.Sprintf("%s/%s", name, pol), func(t *testing.T) {
				got := Partition(g, 1, pol)
				requireSamePartitioned(t, PartitionSerial(g, 1, pol), got)
				hp := got.Hosts[0]
				if g.NumEdges() > 0 && hp.Local != g {
					t.Fatal("one-host local CSR is a copy of the input graph")
				}
				if g.NumEdges() == 0 && hp.Local.Weighted() {
					t.Fatal("edgeless one-host local CSR is weighted")
				}
				for v := range hp.GlobalIDs {
					if l, ok := hp.LocalID(graph.NodeID(v)); hp.GlobalIDs[v] != graph.NodeID(v) || !ok || l != graph.NodeID(v) {
						t.Fatalf("node %d: translation is not the identity", v)
					}
				}
			})
		}
	}
}

// TestSingleHostPartitionAllocs holds the one-host partition to its
// node-sized tables (GlobalIDs and the translation table, 4 bytes each per
// node, plus the owner table): on R-MAT(14,8), about 14 edges per node, it
// may allocate at most 16 bytes per node. A copy of the CSR's edge arrays
// alone would take 12 bytes per edge.
func TestSingleHostPartitionAllocs(t *testing.T) {
	g := gen.RMAT(14, 8, true, 1)
	for _, pol := range Policies {
		goruntime.GC()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		PartitionWorkers(g, 1, pol, 2)
		goruntime.ReadMemStats(&after)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		if limit := int64(g.NumNodes()) * 16; got > limit {
			t.Errorf("%s: one-host partition of %d nodes, %d edges allocated %d bytes, above %d (16 per node)",
				pol, g.NumNodes(), g.NumEdges(), got, limit)
		}
	}
}
