package algorithms

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// randomForest draws a rooted forest over n nodes: nodes are ranked by ID
// plus a little noise, and each node is a root or points at a node of
// lower rank — usually the previous one, so chains run deep and mostly
// stay inside one master range, but wander up and down in ID and cross
// hosts now and then.
func randomForest(n int, seed int64) []graph.NodeID {
	r := rand.New(rand.NewSource(seed))
	order := make([]int, n)
	key := make([]float64, n)
	for v := range order {
		order[v] = v
		key[v] = float64(v) + 12*r.Float64()
	}
	sort.Slice(order, func(i, j int) bool { return key[order[i]] < key[order[j]] })
	parent := make([]graph.NodeID, n)
	for i, v := range order {
		switch p := r.Float64(); {
		case i == 0 || p < 0.1:
			parent[v] = graph.NodeID(v)
		case p < 0.8:
			parent[v] = graph.NodeID(order[i-1])
		default:
			parent[v] = graph.NodeID(order[r.Intn(i)])
		}
	}
	return parent
}

// findLocalRoot is the serial oracle of shortcut.compress: follow v's
// parent chain while it stays on a non-root master of [lo, hi).
func findLocalRoot(parent []graph.NodeID, v, lo, hi graph.NodeID) graph.NodeID {
	x := parent[v]
	for x >= lo && x < hi && parent[x] != x {
		x = parent[x]
	}
	return x
}

// TestShortcutCompressMatchesFindRoot checks the local compression pass
// alone: on random rooted forests over 1–4 hosts × 1–4 threads, every
// master's compressed ancestor equals the serial find-root oracle over its
// host's masters, and so is identical at every thread count. Each forest
// runs dense (every master) and under a frontier that leaves out some
// masters pointing at a root — the state the shortcut's frontier keeps
// out of a round.
func TestShortcutCompressMatchesFindRoot(t *testing.T) {
	const n = 600
	g := gen.Grid(20, 30, false, 1)
	for seed := int64(1); seed <= 3; seed++ {
		parent := randomForest(n, seed)
		for hosts := 1; hosts <= 4; hosts++ {
			for _, useFrontier := range []bool{false, true} {
				var first []graph.NodeID
				for threads := 1; threads <= 4; threads++ {
					t.Run(fmt.Sprintf("seed%d/%dh/%dt/frontier=%v", seed, hosts, threads, useFrontier), func(t *testing.T) {
						got := compressForest(t, g, parent, hosts, threads, useFrontier)
						c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 1})
						if err != nil {
							t.Fatal(err)
						}
						defer c.Close()
						for h := 0; h < hosts; h++ {
							lo, hi := c.Part.MasterRange(h)
							for v := lo; v < hi; v++ {
								if got[v] == graph.InvalidNode {
									continue // left out of the frontier
								}
								if want := findLocalRoot(parent, v, lo, hi); got[v] != want {
									t.Fatalf("host %d master %d: compressed to %d, oracle %d", h, v, got[v], want)
								}
							}
						}
						if first == nil {
							first = got
						} else if !slices.Equal(got, first) {
							t.Fatal("result differs from the 1-thread run")
						}
					})
				}
			}
		}
	}
}

// compressForest loads parent into a node map on a fresh cluster, runs one
// compress pass on every host, and returns each master's compressed
// ancestor by global ID (InvalidNode for masters the frontier left out).
func compressForest(t *testing.T, g *graph.Graph, parent []graph.NodeID, hosts, threads int, useFrontier bool) []graph.NodeID {
	t.Helper()
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, len(parent))
	c.Run(func(h *runtime.Host) {
		var cfg Config
		m := cfg.newNodeMap(h, npm.Overwrite[graph.NodeID]())
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, parent[gid])
		})
		m.InitSync()
		var fr *runtime.Frontier
		// Leave out every third master that points at a root.
		active := func(gid graph.NodeID) bool {
			p := parent[gid]
			return !useFrontier || parent[p] != p || gid%3 != 0
		}
		if useFrontier {
			fr = runtime.NewFrontier(h.HP.NumLocal())
			h.ParForMasters(func(_ int, l graph.NodeID) {
				if active(h.HP.GlobalID(l)) {
					fr.Activate(int(l))
				}
			})
		}
		s := cfg.newShortcut(h, m, fr, nil)
		// One round whose only step is compress, over the set above.
		once := runtime.Loop{Host: h, Frontier: fr, Phases: []runtime.Phase{{Before: s.compress}},
			Done: func() bool { return true }}
		once.Run()
		for l := 0; l < h.HP.NumMasters; l++ {
			gid := h.HP.GlobalID(graph.NodeID(l))
			out[gid] = graph.InvalidNode
			if active(gid) {
				out[gid] = s.anc[l]
			}
		}
	})
	return out
}
