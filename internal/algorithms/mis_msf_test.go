package algorithms

import (
	"math"
	"testing"

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

func TestMSFAllVariants(t *testing.T) {
	// Exercises the MinEdge struct codec through every map backend.
	g := gen.Grid(6, 6, true, 7)
	want := graph.ReferenceMSFWeight(g)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			_, stats := runMSF(t, g, 2, Config{Variant: v})
			if math.Abs(stats.TotalWeight-want) > 1e-6*want {
				t.Fatalf("variant %s: weight %.4f, want %.4f", v, stats.TotalWeight, want)
			}
		})
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
