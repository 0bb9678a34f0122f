package algorithms

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

func runMIS(t *testing.T, g *graph.Graph, hosts int, cfg Config) ([]bool, MISStats) {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.CVC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cfg.Variant == npm.MC && cfg.Store == nil {
		cfg.Store = kvstore.NewCluster(hosts, hosts)
	}
	out := make([]bool, g.NumNodes())
	var stats MISStats
	c.Run(func(h *runtime.Host) {
		s := MIS(h, cfg, out)
		if h.Rank == 0 {
			stats = s
		}
	})
	return out, stats
}

func TestMISValidOnVariousGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid(9, 9, false, 1),
		"rmat": gen.RMAT(8, 6, false, 2),
		"star": gen.Star(50),
	}
	for name, g := range graphs {
		for _, hosts := range []int{1, 2, 4} {
			set, stats := runMIS(t, g, hosts, Config{})
			if !graph.IsValidMIS(g, set) {
				t.Fatalf("%s/%d hosts: invalid MIS", name, hosts)
			}
			if stats.Size == 0 {
				t.Fatalf("%s: empty MIS reported", name)
			}
		}
	}
}

func TestMISStarPicksLeaves(t *testing.T) {
	// On a star, the hub has max degree (lowest priority): the leaves win.
	g := gen.Star(40)
	set, stats := runMIS(t, g, 2, Config{})
	if set[0] {
		t.Error("hub should not be in the MIS")
	}
	if stats.Size != 39 {
		t.Errorf("MIS size = %d, want 39 leaves", stats.Size)
	}
}

func TestMISAllVariants(t *testing.T) {
	g := gen.Grid(6, 6, false, 1)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			set, _ := runMIS(t, g, 2, Config{Variant: v})
			if !graph.IsValidMIS(g, set) {
				t.Fatalf("variant %s produced invalid MIS", v)
			}
		})
	}
}

func runMSF(t *testing.T, g *graph.Graph, hosts int, cfg Config) ([]graph.NodeID, MSFStats) {
	t.Helper()
	return runMSFThreads(t, g, hosts, 3, cfg)
}

func runMSFThreads(t *testing.T, g *graph.Graph, hosts, threads int, cfg Config) ([]graph.NodeID, MSFStats) {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cfg.Variant == npm.MC && cfg.Store == nil {
		cfg.Store = kvstore.NewCluster(hosts, hosts)
	}
	out := make([]graph.NodeID, g.NumNodes())
	var stats MSFStats
	c.Run(func(h *runtime.Host) {
		s := MSF(h, cfg, out)
		if h.Rank == 0 {
			stats = s
		}
	})
	return out, stats
}

// checkSamePartition verifies labels induce the same equivalence classes
// as the reference component labeling.
func checkSamePartition(t *testing.T, g *graph.Graph, got []graph.NodeID, name string) {
	t.Helper()
	want := graph.ReferenceComponents(g)
	fwd := map[graph.NodeID]graph.NodeID{}
	rev := map[graph.NodeID]graph.NodeID{}
	for i := range want {
		if w, ok := fwd[got[i]]; ok && w != want[i] {
			t.Fatalf("%s: label %d spans two reference components", name, got[i])
		}
		if g2, ok := rev[want[i]]; ok && g2 != got[i] {
			t.Fatalf("%s: reference component %d split across labels", name, want[i])
		}
		fwd[got[i]] = want[i]
		rev[want[i]] = got[i]
	}
}

func TestMSFMatchesKruskal(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":   gen.Grid(8, 8, true, 7),
		"rmat":   gen.RMAT(7, 5, true, 8),
		"forest": gen.ErdosRenyi(80, 60, true, 9), // disconnected
	}
	for name, g := range graphs {
		want := graph.ReferenceMSFWeight(g)
		for _, hosts := range []int{1, 2, 4} {
			comp, stats := runMSF(t, g, hosts, Config{})
			if math.Abs(stats.TotalWeight-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("%s/%d hosts: MSF weight %.6f, want %.6f",
					name, hosts, stats.TotalWeight, want)
			}
			// The forest connects exactly the graph's components. MSF
			// labels are canonical roots, not min IDs, so compare the
			// partition structure.
			checkSamePartition(t, g, comp, "MSF components "+name)
			// A forest over C components and N nodes has N-C edges
			// (isolated nodes form their own components).
			labels := graph.ReferenceComponents(g)
			wantEdges := int64(g.NumNodes() - graph.NumComponents(labels))
			if stats.ForestEdges != wantEdges {
				t.Fatalf("%s/%d hosts: forest edges %d, want %d",
					name, hosts, stats.ForestEdges, wantEdges)
			}
		}
	}
}

func TestMSFUnweightedGraph(t *testing.T) {
	// Unweighted edges all cost 1: MSF weight = N - C.
	g := gen.Grid(5, 5, false, 1)
	_, stats := runMSF(t, g, 2, Config{})
	if stats.TotalWeight != 24 {
		t.Fatalf("unweighted grid MSF weight = %v, want 24", stats.TotalWeight)
	}
}

func TestMSFDeterministicAcrossHosts(t *testing.T) {
	g := gen.RMAT(7, 4, true, 11)
	_, s1 := runMSF(t, g, 1, Config{})
	_, s4 := runMSF(t, g, 4, Config{})
	// Summation order differs across host counts; allow float round-off.
	if math.Abs(s1.TotalWeight-s4.TotalWeight) > 1e-9*s1.TotalWeight {
		t.Fatalf("MSF weight differs across host counts: %v vs %v",
			s1.TotalWeight, s4.TotalWeight)
	}
	if s1.ForestEdges != s4.ForestEdges {
		t.Fatalf("forest edges differ across host counts: %d vs %d",
			s1.ForestEdges, s4.ForestEdges)
	}
}

// TestMSFWeightDeterministicAcrossThreads repeats MSF at 1 host × 4
// threads and requires one bit pattern of the forest weight. Four threads
// merge roots concurrently in every round; a weight summed by concurrent
// float adds would follow their interleaving.
func TestMSFWeightDeterministicAcrossThreads(t *testing.T) {
	g := gen.RMAT(14, 8, true, 3)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 1, ThreadsPerHost: 4, Policy: partition.CVC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	comp := make([]graph.NodeID, g.NumNodes())
	seen := map[uint64]int{}
	for i := 0; i < 12; i++ {
		c.Run(func(h *runtime.Host) {
			seen[math.Float64bits(MSF(h, Config{}, comp).TotalWeight)]++
		})
	}
	if len(seen) != 1 {
		t.Fatalf("12 runs gave %d distinct forest weights (bits -> runs): %v", len(seen), seen)
	}
}

func TestMinEdgeOpProperties(t *testing.T) {
	op := MinEdgeOp()
	a := MinEdge{W: 1, A: 2, B: 3}
	b := MinEdge{W: 1, A: 2, B: 4}
	if op.Combine(a, b) != a || op.Combine(b, a) != a {
		t.Error("tie-break by endpoints not commutative-consistent")
	}
	inf := infEdge()
	if op.Combine(inf, a) != a || op.Combine(a, inf) != a {
		t.Error("identity not neutral")
	}
}

func TestMinEdgeCodecRoundTrip(t *testing.T) {
	c := MinEdgeCodec{}
	e := MinEdge{W: 3.25, A: 7, B: 99}
	buf := c.Append(nil, e)
	if len(buf) != c.Size() {
		t.Fatalf("encoded size %d != %d", len(buf), c.Size())
	}
	got, rest := c.Read(buf)
	if got != e || len(rest) != 0 {
		t.Fatalf("round trip: %+v", got)
	}
}

// TestMSFAllVariants runs MSF through every map backend (the MinEdge
// struct codec included) on 2 hosts × 1 and × 3 threads and 4 hosts × 3
// threads, and requires Kruskal's weight, N−C forest edges, the reference
// component partition, and component labels identical to the Full
// variant's. The (weight, endpoints) order is total, so the forest and its
// roots are unique. On the unweighted R-MAT every edge ties and the
// endpoint order alone picks each component's candidate: a proposer that
// kept the first of several equal-weight crossing edges in local CSR order
// instead of the least would let two components pick different edges to
// each other — on 4 hosts the forest then gains edges.
func TestMSFAllVariants(t *testing.T) {
	type msfCase struct {
		name           string
		g              *graph.Graph
		hosts, threads int
		weight         float64 // Kruskal's
		edges          int64   // N − C
	}
	var cases []msfCase
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-weighted", gen.Grid(6, 6, true, 7)},
		{"rmat-unweighted", gen.RMAT(8, 8, false, 3)},
	} {
		weight := graph.ReferenceMSFWeight(in.g)
		edges := int64(in.g.NumNodes() - graph.NumComponents(graph.ReferenceComponents(in.g)))
		for _, shape := range [][2]int{{2, 1}, {2, 3}, {4, 3}} {
			name := fmt.Sprintf("%s/%dh%dt", in.name, shape[0], shape[1])
			cases = append(cases, msfCase{name, in.g, shape[0], shape[1], weight, edges})
		}
	}
	comps := map[string]map[npm.Variant][]graph.NodeID{}
	for _, tc := range cases {
		comps[tc.name] = map[npm.Variant][]graph.NodeID{}
	}
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			for _, tc := range cases {
				comp, stats := runMSFThreads(t, tc.g, tc.hosts, tc.threads, Config{Variant: v})
				if math.Abs(stats.TotalWeight-tc.weight) > 1e-6*tc.weight {
					t.Errorf("%s: weight %.4f, want %.4f", tc.name, stats.TotalWeight, tc.weight)
				}
				if stats.ForestEdges != tc.edges {
					t.Errorf("%s: forest edges %d, want %d", tc.name, stats.ForestEdges, tc.edges)
				}
				checkSamePartition(t, tc.g, comp, tc.name)
				comps[tc.name][v] = comp
			}
		})
	}
	for _, tc := range cases {
		for v, comp := range comps[tc.name] {
			if !slices.Equal(comp, comps[tc.name][npm.Full]) {
				t.Errorf("%s: variant %s's component labels differ from Full's", tc.name, v)
			}
		}
	}
}

func TestCCSCLPAllVariants(t *testing.T) {
	g := gen.Grid(6, 6, false, 1)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			got := runCC(t, g, 2, partition.CVC, Config{Variant: v}, CCSCLP)
			checkLabels(t, g, got, "CC-SCLP/"+string(v))
		})
	}
}

func TestMISMaxRoundsCap(t *testing.T) {
	// The safety cap must terminate the loop even before convergence.
	g := gen.Grid(10, 10, false, 1)
	_, stats := runMIS(t, g, 2, Config{MaxRounds: 1})
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d with cap 1", stats.Rounds)
	}
}

// TestMISRoadGridRounds pins the priority MIS's schedule on the road
// workload's shape: a 256×256 grid on 2 hosts × 1 thread under CVC. Every
// interior node has degree 4, so the order among them is the tie-break's;
// a row-major ID tie-break admitted one anti-diagonal per round (255
// rounds, 3072 messages); the hashed one takes 5. The message count is
// exact: every round runs a fixed set of collectives.
func TestMISRoadGridRounds(t *testing.T) {
	g := gen.Grid(256, 256, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]bool, g.NumNodes())
	var stats MISStats
	msgs0, _ := c.CommStatsByTag()
	c.Run(func(h *runtime.Host) {
		if s := MIS(h, Config{}, out); h.Rank == 0 {
			stats = s
		}
	})
	msgs1, _ := c.CommStatsByTag()
	var msgs int64
	for tag := range msgs1 {
		msgs += msgs1[tag] - msgs0[tag]
	}
	t.Logf("%d rounds, %d messages, set size %d", stats.Rounds, msgs, stats.Size)
	if !graph.IsValidMIS(g, out) {
		t.Fatal("invalid MIS")
	}
	if stats.Rounds > 16 {
		t.Errorf("MIS took %d rounds on the 256×256 grid, want ≤ 16", stats.Rounds)
	}
	// 12 per round plus 12 of set-up and result gathering.
	if want := int64(72); msgs != want {
		t.Errorf("MIS sent %d messages, want %d", msgs, want)
	}
}

// readCounter is a ReadStatsSink summing every map's read counters over
// all hosts.
type readCounter struct{ master, remote atomic.Int64 }

// Record implements ReadStatsSink.
func (s *readCounter) Record(master, remote int64) {
	s.master.Add(master)
	s.remote.Add(remote)
}

// TestMISMSFCountersPinned pins the BSP program of MSF and MIS on the
// social workload's small shape, R-MAT(10,8), and a 64×64 grid, 2 hosts ×
// 1 thread under CVC: MSF's rounds, forest edges and total weight (bit for
// bit), MIS's rounds and set size, the cluster's comm messages and bytes
// per tag, and the read-locality counters every map reports to the
// StatsSink. The values were measured before the candidate-selection and
// MIS edge scans moved to host-local IDs (npm.Local) and began folding
// each source's edges into one reduce; min is associative, so both are
// pure execution changes and every count must stay exactly as it was.
// MSF's master reads then fell (rmat 71,215 → 45,972, grid 287,951 →
// 273,370) when the candidate scan began skipping an edge heavier than
// its best crossing edge before reading the edge's parent. The shortcut's
// host-local compression (DESIGN.md §12) then cut MSF's request,
// response, reduce and app messages (rmat 168 → 160, grid 328 → 288) and
// its request, response and app bytes (rmat 4,887 → 4,735, grid 2,047 →
// 1,889) at the same rounds, forest and weight bits; its
// doubling reads masters, and its jump reads the farthest local ancestor's
// parent, a remote node more often than the old grandparent read was
// (master reads rmat 45,972 → 49,140, grid 273,370 → 303,049; remote
// 6,873 → 7,046 and 11,575 → 12,428).
func TestMISMSFCountersPinned(t *testing.T) {
	type pin struct {
		rounds         int
		size           int64  // MSF: forest edges; MIS: set size
		weightBits     uint64 // MSF only
		msgs, bytes    [comm.NumTags]int64
		master, remote int64
	}
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(10, 8, true, 1),
		"grid": gen.Grid(64, 64, true, 1),
	}
	// Tags in comm.Tag order: barrier, request, response, reduce,
	// broadcast, app.
	want := map[string]pin{
		"MSF/rmat": {4, 804, 0x40d06be301562719, [6]int64{0, 42, 42, 40, 8, 36}, [6]int64{0, 487, 4184, 13068, 11908, 64}, 49140, 7046},
		"MSF/grid": {8, 4095, 0x40fc29eb83398077, [6]int64{0, 76, 76, 74, 16, 62}, [6]int64{0, 275, 1524, 4404, 4240, 90}, 303049, 12428},
		"MIS/rmat": {2, 685, 0, [6]int64{0, 2, 2, 14, 12, 6}, [6]int64{0, 0, 0, 11861, 11952, 48}, 33732, 2262},
		"MIS/grid": {5, 1517, 0, [6]int64{0, 2, 2, 32, 24, 12}, [6]int64{0, 0, 0, 2563, 2162, 96}, 80290, 492},
	}
	for gname, g := range graphs {
		for _, algo := range []string{"MSF", "MIS"} {
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
			if err != nil {
				t.Fatal(err)
			}
			var sink readCounter
			cfg := Config{StatsSink: &sink}
			var got pin
			switch algo {
			case "MSF":
				comp := make([]graph.NodeID, g.NumNodes())
				var st MSFStats
				c.Run(func(h *runtime.Host) {
					if s := MSF(h, cfg, comp); h.Rank == 0 {
						st = s
					}
				})
				checkSamePartition(t, g, comp, "MSF "+gname)
				got.rounds, got.size, got.weightBits = st.Rounds, st.ForestEdges, math.Float64bits(st.TotalWeight)
			case "MIS":
				set := make([]bool, g.NumNodes())
				var st MISStats
				c.Run(func(h *runtime.Host) {
					if s := MIS(h, cfg, set); h.Rank == 0 {
						st = s
					}
				})
				if !graph.IsValidMIS(g, set) {
					t.Fatalf("MIS %s: invalid set", gname)
				}
				got.rounds, got.size = st.Rounds, st.Size
			}
			msgs, bytes := c.CommStatsByTag()
			c.Close()
			copy(got.msgs[:], msgs)
			copy(got.bytes[:], bytes)
			got.master, got.remote = sink.master.Load(), sink.remote.Load()
			name := algo + "/" + gname
			if w := want[name]; got != w {
				t.Errorf("%s: got %+v, want %+v", name, got, w)
			}
		}
	}
}
