package algorithms

import (
	"math"
	"testing"

	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

func communityGraph() *graph.Graph {
	return gen.Communities(6, 30, 5, 1, true, 21)
}

func TestLouvainFindsPlantedCommunities(t *testing.T) {
	g := communityGraph()
	for _, hosts := range []int{1, 2, 4} {
		res, err := Louvain(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3},
			Config{}, CDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < 0.4 {
			t.Fatalf("%d hosts: modularity %.3f, want > 0.4", hosts, res.Modularity)
		}
		if res.Levels == 0 || res.Rounds == 0 {
			t.Fatalf("%d hosts: no work recorded: %+v", hosts, res)
		}
		if len(res.Assignment) != g.NumNodes() {
			t.Fatalf("assignment length %d", len(res.Assignment))
		}
		// Modularity reported must match an independent recomputation.
		q := graph.Modularity(g, res.Assignment)
		if math.Abs(q-res.Modularity) > 1e-9 {
			t.Fatalf("reported Q %.6f != recomputed %.6f", res.Modularity, q)
		}
	}
}

func TestLouvainBeatsSingletonAndMonolith(t *testing.T) {
	g := communityGraph()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	singleton := make([]graph.NodeID, g.NumNodes())
	for i := range singleton {
		singleton[i] = graph.NodeID(i)
	}
	monolith := make([]graph.NodeID, g.NumNodes())
	if res.Modularity <= graph.Modularity(g, singleton) ||
		res.Modularity <= graph.Modularity(g, monolith) {
		t.Fatalf("Louvain Q=%.3f no better than trivial assignments", res.Modularity)
	}
}

// TestLouvainConsistentAcrossHostCounts checks that Louvain and Leiden are
// deterministic: repeated runs and every cluster shape (2h×1t, 1h×3t,
// 4h×2t) return the same assignment, rounds, levels and modularity bits.
// Move decisions read only synchronized community totals, and candidate
// communities are visited in first-touch order, so the ±1e-12 tie-break
// cannot resolve near-ties differently from one run to the next.
func TestLouvainConsistentAcrossHostCounts(t *testing.T) {
	shapes := []runtime.Config{
		{NumHosts: 2, ThreadsPerHost: 1},
		{NumHosts: 1, ThreadsPerHost: 3},
		{NumHosts: 4, ThreadsPerHost: 2},
		{NumHosts: 2, ThreadsPerHost: 1}, // repeat of the first shape
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"small", communityGraph()}, {"planted", gen.Communities(8, 64, 8, 2, true, 3)}}
	for _, algo := range []struct {
		name string
		run  func(*graph.Graph, runtime.Config, Config, CDOptions) (CDResult, error)
	}{{"lv", Louvain}, {"ld", Leiden}} {
		for _, tg := range graphs {
			t.Run(algo.name+"/"+tg.name, func(t *testing.T) {
				var want CDResult
				for i, shape := range shapes {
					res, err := algo.run(tg.g, shape, Config{}, CDOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want = res
						continue
					}
					if res.Rounds != want.Rounds || res.Levels != want.Levels ||
						math.Float64bits(res.Modularity) != math.Float64bits(want.Modularity) {
						t.Fatalf("%dh×%dt: %d rounds, %d levels, Q %v; want %d, %d, %v",
							shape.NumHosts, shape.ThreadsPerHost, res.Rounds, res.Levels, res.Modularity,
							want.Rounds, want.Levels, want.Modularity)
					}
					for n, c := range res.Assignment {
						if c != want.Assignment[n] {
							t.Fatalf("%dh×%dt: node %d in community %d, want %d",
								shape.NumHosts, shape.ThreadsPerHost, n, c, want.Assignment[n])
						}
					}
				}
			})
		}
	}
}

func TestLouvainAllVariants(t *testing.T) {
	g := gen.Communities(4, 20, 4, 1, true, 5)
	for _, v := range npm.Variants {
		t.Run(string(v), func(t *testing.T) {
			cfg := Config{Variant: v}
			if v == npm.MC {
				cfg.Store = kvstore.NewCluster(2, 2)
			}
			res, err := Louvain(g, runtime.Config{NumHosts: 2}, cfg, CDOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Modularity < 0.3 {
				t.Fatalf("variant %s: modularity %.3f", v, res.Modularity)
			}
		})
	}
}

func TestLouvainEarlyTermination(t *testing.T) {
	g := communityGraph()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{},
		CDOptions{EarlyTermination: true})
	if err != nil {
		t.Fatal(err)
	}
	// Vite's heuristic trades some quality for speed but must stay sane.
	if res.Modularity < 0.35 {
		t.Fatalf("early-termination modularity %.3f too low", res.Modularity)
	}
}

func TestLouvainTimersPopulated(t *testing.T) {
	g := communityGraph()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compute <= 0 || res.Comm <= 0 {
		t.Fatalf("timers not populated: %+v", res)
	}
}

func TestLouvainEdgelessGraph(t *testing.T) {
	b := graph.NewBuilder(10)
	g := b.Build()
	res, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity != 0 {
		t.Fatalf("edgeless modularity = %v", res.Modularity)
	}
}

func TestLeidenQuality(t *testing.T) {
	g := communityGraph()
	for _, hosts := range []int{1, 3} {
		res, err := Leiden(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3},
			Config{}, CDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < 0.4 {
			t.Fatalf("%d hosts: Leiden modularity %.3f", hosts, res.Modularity)
		}
		q := graph.Modularity(g, res.Assignment)
		if math.Abs(q-res.Modularity) > 1e-9 {
			t.Fatalf("reported Q %.6f != recomputed %.6f", res.Modularity, q)
		}
	}
}

func TestLeidenComparableToLouvain(t *testing.T) {
	// The paper reports Leiden improves or matches Louvain quality.
	g := gen.Communities(8, 25, 4, 2, true, 33)
	lv, err := Louvain(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Leiden(g, runtime.Config{NumHosts: 2}, Config{}, CDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ld.Modularity < lv.Modularity-0.05 {
		t.Fatalf("Leiden Q=%.4f much worse than Louvain Q=%.4f",
			ld.Modularity, lv.Modularity)
	}
}

func TestLeidenGammaControlsRefinement(t *testing.T) {
	// A permissive gamma merges subcommunities aggressively; a strict one
	// keeps more nodes singleton. Both must stay valid clusterings.
	g := communityGraph()
	loose, err := Leiden(g, runtime.Config{NumHosts: 2}, Config{},
		CDOptions{Gamma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Leiden(g, runtime.Config{NumHosts: 2}, Config{},
		CDOptions{Gamma: 10})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Modularity < 0.3 || strict.Modularity < 0.3 {
		t.Fatalf("gamma variants degraded quality: %.3f / %.3f",
			loose.Modularity, strict.Modularity)
	}
}

// TestCommunityRequestVolumePinned runs one local-moving level (and, for
// Leiden, its refinement) on a 2-host × 1-thread OEC cluster and pins the
// request and response messages and bytes the whole cluster sends, with
// the level's rounds and moved-node count. The values were measured while
// the move phase's request pass still walked every master edge. Under OEC
// the mirrors are exactly the destinations of master edges, so requesting
// the community of every local proxy asks for the same IDs: every count
// must stay exactly as it was. The SGR+CF message counts then fell from
// 216 to 186 when the round stopped requesting the community map a second
// time before the modularity sweep; that request asked for nothing new,
// so the bytes did not move.
func TestCommunityRequestVolumePinned(t *testing.T) {
	type pin struct {
		rounds      int
		moved       int64
		msgs, bytes [2]int64 // request, response
	}
	g := gen.Communities(8, 64, 8, 2, true, 3)
	for _, tc := range []struct {
		name    string
		variant npm.Variant
		leiden  bool
		want    pin
	}{
		{"lv/" + string(npm.Full), npm.Full, false, pin{15, 2408, [2]int64{62, 62}, [2]int64{2644, 20912}}},
		{"lv/" + string(npm.SGRCF), npm.SGRCF, false, pin{15, 2408, [2]int64{186, 186}, [2]int64{18442, 115648}}},
		{"ld/" + string(npm.Full), npm.Full, true, pin{15, 2408, [2]int64{74, 74}, [2]int64{2644, 20912}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.OEC})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cfg, opts := Config{Variant: tc.variant}, CDOptions{}.withDefaults()
			assign, sub := make([]graph.NodeID, g.NumNodes()), make([]graph.NodeID, g.NumNodes())
			var got pin
			c.Run(func(h *runtime.Host) {
				accs := graph.NewAccumulators(h.Threads, h.HP.NumGlobalNodes())
				r, m := refineLevel(h, cfg, opts, accs, nil, assign)
				if tc.leiden {
					leidenRefine(h, cfg, opts, accs, assign, sub)
				}
				if h.Rank == 0 {
					got.rounds, got.moved = r, m
				}
			})
			msgs, bytes := c.CommStatsByTag()
			got.msgs = [2]int64{msgs[comm.TagRequest], msgs[comm.TagResponse]}
			got.bytes = [2]int64{bytes[comm.TagRequest], bytes[comm.TagResponse]}
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}
