package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"grid": gen.Grid(10, 10, true, 1),
		"rmat": gen.RMAT(8, 8, true, 2),
		"star": gen.Star(64),
	}
}

// checkInvariants verifies the core structural guarantees every policy must
// provide: each edge assigned exactly once (with its weight), every node
// has exactly one master, and proxy metadata is mutually consistent.
func checkInvariants(t *testing.T, g *graph.Graph, p *Partitioned) {
	t.Helper()

	// Every global node has exactly one master across hosts.
	masterCount := make([]int, g.NumNodes())
	for _, hp := range p.Hosts {
		lo, hi := hp.MasterRangeGlobal()
		for v := lo; v < hi; v++ {
			masterCount[v]++
		}
		if int(hi-lo) != hp.NumMasters {
			t.Fatalf("host %d: master range %d..%d but NumMasters=%d",
				hp.Host, lo, hi, hp.NumMasters)
		}
	}
	for v, c := range masterCount {
		if c != 1 {
			t.Fatalf("node %d has %d masters", v, c)
		}
	}

	// Total local edges equals global edges; each global edge appears once.
	edgeCount := make(map[[2]graph.NodeID]int)
	var localTotal int64
	for _, hp := range p.Hosts {
		localTotal += hp.Local.NumEdges()
		for n := 0; n < hp.Local.NumNodes(); n++ {
			src := hp.GlobalID(graph.NodeID(n))
			lo, hi := hp.Local.EdgeRange(graph.NodeID(n))
			for e := lo; e < hi; e++ {
				dst := hp.GlobalID(hp.Local.Dst(e))
				edgeCount[[2]graph.NodeID{src, dst}]++
				if g.Weighted() && hp.Local.Weight(e) <= 0 {
					t.Fatalf("edge %d->%d lost weight", src, dst)
				}
			}
		}
	}
	if localTotal != g.NumEdges() {
		t.Fatalf("local edges total %d != global %d", localTotal, g.NumEdges())
	}
	for n := 0; n < g.NumNodes(); n++ {
		for _, v := range g.Neighbors(graph.NodeID(n)) {
			if edgeCount[[2]graph.NodeID{graph.NodeID(n), v}] < 1 {
				t.Fatalf("edge %d->%d missing from all partitions", n, v)
			}
		}
	}

	// LocalID/GlobalID are inverse; masters precede mirrors; owner agrees.
	for _, hp := range p.Hosts {
		for l := 0; l < hp.NumLocal(); l++ {
			gid := hp.GlobalID(graph.NodeID(l))
			back, ok := hp.LocalID(gid)
			if !ok || back != graph.NodeID(l) {
				t.Fatalf("host %d: LocalID(GlobalID(%d)) = %d,%v", hp.Host, l, back, ok)
			}
			if hp.IsMaster(graph.NodeID(l)) != (p.Owner(gid) == hp.Host) {
				t.Fatalf("host %d node %d: master flag disagrees with owner", hp.Host, l)
			}
		}
		if _, ok := hp.LocalID(graph.NodeID(g.NumNodes() + 5)); ok {
			t.Fatal("LocalID accepted unknown global node")
		}
	}

	// Mirror exchange lists are symmetric: host h's MirrorsByOwner[o]
	// matches host o's MasterSendTo[h] node for node.
	for h, hp := range p.Hosts {
		for o, mirrors := range hp.MirrorsByOwner {
			sends := p.Hosts[o].MasterSendTo[h]
			if len(mirrors) != len(sends) {
				t.Fatalf("hosts %d/%d: mirror list %d != send list %d",
					h, o, len(mirrors), len(sends))
			}
			for i := range mirrors {
				if hp.GlobalID(mirrors[i]) != p.Hosts[o].GlobalID(sends[i]) {
					t.Fatalf("hosts %d/%d: exchange lists disagree at %d", h, o, i)
				}
			}
		}
	}
}

func TestAllPoliciesAllGraphs(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, pol := range Policies {
			for _, hosts := range []int{1, 2, 3, 4, 8} {
				p := Partition(g, hosts, pol)
				t.Run(name+"/"+string(pol), func(t *testing.T) {
					checkInvariants(t, g, p)
				})
			}
		}
	}
}

func TestOECStructuralInvariant(t *testing.T) {
	g := gen.RMAT(8, 8, false, 3)
	p := Partition(g, 4, OEC)
	for _, hp := range p.Hosts {
		if !hp.MirrorsHaveNoOutEdges {
			t.Errorf("host %d: OEC mirrors should have no out edges", hp.Host)
		}
	}
}

func TestIECStructuralInvariant(t *testing.T) {
	g := gen.RMAT(8, 8, false, 3)
	p := Partition(g, 4, IEC)
	for _, hp := range p.Hosts {
		if !hp.MirrorsHaveNoInEdges {
			t.Errorf("host %d: IEC mirrors should have no in edges", hp.Host)
		}
	}
}

func TestSingleHostNoMirrors(t *testing.T) {
	g := gen.Grid(5, 5, false, 1)
	for _, pol := range Policies {
		p := Partition(g, 1, pol)
		if p.Hosts[0].NumMirrors() != 0 {
			t.Errorf("policy %s: 1 host has %d mirrors", pol, p.Hosts[0].NumMirrors())
		}
		if p.Hosts[0].NumMasters != g.NumNodes() {
			t.Errorf("policy %s: 1 host has %d masters", pol, p.Hosts[0].NumMasters)
		}
		if rf := p.ReplicationFactor(); rf != 1.0 {
			t.Errorf("policy %s: replication factor %v on 1 host", pol, rf)
		}
	}
}

func TestOwnerIsTotal(t *testing.T) {
	g := gen.RMAT(9, 4, false, 7)
	p := Partition(g, 5, OEC)
	counts := make([]int, 5)
	for v := 0; v < g.NumNodes(); v++ {
		o := p.Owner(graph.NodeID(v))
		if o < 0 || o >= 5 {
			t.Fatalf("Owner(%d) = %d out of range", v, o)
		}
		counts[o]++
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != g.NumNodes() {
		t.Fatalf("owners cover %d nodes, want %d", sum, g.NumNodes())
	}
}

func TestDegreeBalancedBoundaries(t *testing.T) {
	// A star graph: node 0 has huge degree; the first host should get few
	// nodes and later hosts most of them.
	g := gen.Star(1000)
	p := Partition(g, 4, OEC)
	lo0, hi0 := p.MasterRange(0)
	if hi0-lo0 > 600 {
		t.Errorf("host 0 got %d nodes of a star; balancing failed", hi0-lo0)
	}
}

// TestDegreeBalancedBoundariesPinned pins the degree-balanced walk's
// exact output on shapes that stress its edges: no nodes, one node, a
// skewed random graph, an isolated tail (zero-degree nodes still weigh
// 1), an R-MAT, and more ranges than the weight can fill. Owner, the
// reduce-sync wire and every counter pin depend on these bounds.
func TestDegreeBalancedBoundariesPinned(t *testing.T) {
	skewed := graph.NewBuilder(120)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 700; i++ {
		s := graph.NodeID(r.Intn(120) * r.Intn(120) / 120)
		skewed.AddWeightedEdge(s, graph.NodeID(r.Intn(120)), float64(r.Intn(9)+1))
	}
	iso := graph.NewBuilder(50)
	for i := 0; i < 20; i++ {
		iso.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%20))
	}
	graphs := map[string]*graph.Graph{
		"empty":         graph.NewBuilder(0).BuildSerial(),
		"single":        graph.NewBuilder(1).BuildSerial(),
		"skewed":        skewed.BuildSerial(),
		"isolated-tail": iso.BuildSerial(),
		"rmat10":        gen.RMAT(10, 8, false, 3),
	}
	want := map[string]map[int][]graph.NodeID{
		"empty":  {1: {0, 0}, 2: {0, 0, 0}, 8: {0, 0, 0, 0, 0, 0, 0, 0, 0}},
		"single": {1: {0, 1}, 3: {0, 1, 1, 1}, 8: {0, 1, 1, 1, 1, 1, 1, 1, 1}},
		"skewed": {
			1: {0, 120}, 2: {0, 25, 120}, 3: {0, 14, 40, 120}, 4: {0, 10, 25, 52, 120},
			8: {0, 4, 10, 17, 25, 35, 51, 74, 120},
		},
		"isolated-tail": {
			2: {0, 18, 50}, 3: {0, 12, 26, 50}, 4: {0, 9, 17, 31, 50},
			8: {0, 4, 8, 12, 16, 20, 28, 36, 50},
		},
		"rmat10": {
			2: {0, 232, 1024}, 3: {0, 92, 389, 1024}, 4: {0, 52, 232, 521, 1024},
			8: {0, 13, 52, 129, 232, 325, 521, 649, 1024},
		},
	}
	for name, byHosts := range want {
		for hosts, w := range byHosts {
			t.Run(fmt.Sprintf("%s/hosts=%d", name, hosts), func(t *testing.T) {
				if got := degreeBalancedBoundaries(graphs[name], hosts); !slices.Equal(got, w) {
					t.Errorf("boundaries %v, want %v", got, w)
				}
				p := Partition(graphs[name], hosts, CVC)
				for h := 0; h < hosts; h++ {
					if lo, hi := p.MasterRange(h); lo != w[h] || hi != w[h+1] {
						t.Errorf("MasterRange(%d) = [%d,%d), want [%d,%d)",
							h, lo, hi, w[h], w[h+1])
					}
				}
			})
		}
	}
}

// The dense translation table must answer exactly like the membership it
// was built from, including out-of-range probes, and account one int32 per
// global node.
func TestLocalIDTable(t *testing.T) {
	g := testGraphs(t)["rmat"]
	p := Partition(g, 4, CVC)
	for _, hp := range p.Hosts {
		seen := map[graph.NodeID]graph.NodeID{}
		for l, gid := range hp.GlobalIDs {
			seen[gid] = graph.NodeID(l)
		}
		for v := 0; v < g.NumNodes(); v++ {
			l, ok := hp.LocalID(graph.NodeID(v))
			wantL, wantOK := seen[graph.NodeID(v)]
			if ok != wantOK || (ok && l != wantL) {
				t.Fatalf("host %d: LocalID(%d) = (%d,%v), want (%d,%v)",
					hp.Host, v, l, ok, wantL, wantOK)
			}
		}
		if _, ok := hp.LocalID(graph.NodeID(g.NumNodes() + 3)); ok {
			t.Fatalf("host %d: out-of-range global reported local", hp.Host)
		}
		if got, want := hp.TranslationFootprint(), 4*int64(g.NumNodes()); got != want {
			t.Fatalf("host %d: translation footprint %d, want %d", hp.Host, got, want)
		}
	}
}

func TestGridShape(t *testing.T) {
	cases := []struct{ n, pr, pc int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {9, 3, 3},
		{12, 3, 4}, {16, 4, 4}, {7, 1, 7},
	}
	for _, c := range cases {
		pr, pc := gridShape(c.n)
		if pr != c.pr || pc != c.pc {
			t.Errorf("gridShape(%d) = %d,%d want %d,%d", c.n, pr, pc, c.pr, c.pc)
		}
	}
}

func TestCVCReplicationBounded(t *testing.T) {
	// CVC on a 2x2 grid: each node can appear on at most pr+pc-1 hosts as
	// an edge endpoint, so replication factor <= 3 for 4 hosts... plus
	// master-only proxies. Just check it is sane.
	g := gen.RMAT(9, 8, false, 5)
	p := Partition(g, 4, CVC)
	if rf := p.ReplicationFactor(); rf > 4 {
		t.Errorf("CVC replication factor %v > hosts", rf)
	}
}

func TestPartitionPanicsOnZeroHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 hosts")
		}
	}()
	Partition(gen.Star(4), 0, OEC)
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown policy")
		}
	}()
	Partition(gen.Star(4), 2, Policy("bogus"))
}

// Property: for random graphs and host counts, all invariants hold.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < r.Intn(300); i++ {
			b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
		}
		g := b.Build()
		hosts := r.Intn(6) + 1
		pol := Policies[r.Intn(len(Policies))]
		p := Partition(g, hosts, pol)

		var local int64
		for _, hp := range p.Hosts {
			local += hp.Local.NumEdges()
			for l := 0; l < hp.NumLocal(); l++ {
				back, ok := hp.LocalID(hp.GlobalID(graph.NodeID(l)))
				if !ok || back != graph.NodeID(l) {
					return false
				}
			}
		}
		return local == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
