package algorithms

import (
	"fmt"
	"math"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Cross-variant equivalence: the ablation variants differ only in how
// property values are stored and synchronized, so converged results must be
// bit-identical across Full, SGRCF, SGROnly, and MC — and across host
// counts. This guards the reduce-sync rewrite (range-bucketed combine,
// sectioned payloads) against silent semantic drift: a mis-bucketed or
// double-decoded entry shows up as a diverging label.

func equivalenceGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat": gen.RMAT(9, 6, false, 42),
		"grid": gen.Grid(16, 16, false, 7),
	}
}

func TestCCEquivalentAcrossVariantsAndHosts(t *testing.T) {
	for gname, g := range equivalenceGraphs() {
		var ref []graph.NodeID
		for _, hosts := range []int{1, 4, 8} {
			for _, v := range npm.Variants {
				got := runCC(t, g, hosts, partition.OEC, Config{Variant: v}, CCSV)
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s/%s/%dh: node %d labeled %d, reference %d",
							gname, v, hosts, i, got[i], ref[i])
					}
				}
			}
		}
		ref = nil
	}
}

// TestCCSVTransportMatrix pins CC-SV against the sequential reference
// across {dense, sparse} × {in-memory, TCP} × {2, 4, 8} hosts on a CVC
// partition: the one matrix that runs both trans-vertex addressing paths
// (hook targets and shortcut grandparent reads) over the real-socket
// transport at every host count.
func TestCCSVTransportMatrix(t *testing.T) {
	g := gen.RMAT(8, 6, false, 2)
	want := graph.ReferenceComponents(g)
	for _, tcp := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			for _, hosts := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("tcp=%v/dense=%v/hosts=%d", tcp, dense, hosts), func(t *testing.T) {
					rc := runtime.Config{
						NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.CVC, UseTCP: tcp,
					}
					got, _ := runCCOn(t, g, rc, Config{dense: dense}, CCSV)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("node %d labeled %d, reference %d", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestLouvainEquivalentAcrossVariants runs Louvain and Leiden under every
// map variant and requires each result to be bit-identical to Full's:
// assignment, modularity bits, rounds, levels and Converged. Modularity
// is recomputed from the assignment in label order, so it carries no
// thread-schedule round-off. Leiden runs at 2 and 4 hosts, where a
// variant without GAR reads only what it requested.
func TestLouvainEquivalentAcrossVariants(t *testing.T) {
	// Full runs first: it is the reference.
	variants := []npm.Variant{npm.Full, npm.Vite}
	for _, v := range npm.Variants {
		if v != npm.Full {
			variants = append(variants, v)
		}
	}
	for _, algo := range []struct {
		name  string
		run   func(*graph.Graph, runtime.Config, Config, CDOptions) (CDResult, error)
		hosts []int
	}{{"lv", Louvain, []int{1, 4, 8}}, {"ld", Leiden, []int{2, 4}}} {
		for gname, g := range equivalenceGraphs() {
			for _, hosts := range algo.hosts {
				var ref CDResult
				for i, v := range variants {
					cfg := Config{Variant: v}
					if v == npm.MC {
						cfg.Store = kvstore.NewCluster(hosts, hosts)
					}
					res, err := algo.run(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3},
						cfg, CDOptions{})
					if err != nil {
						t.Fatalf("%s/%s/%s/%dh: %v", algo.name, gname, v, hosts, err)
					}
					if i == 0 {
						ref = res
						continue
					}
					if res.Rounds != ref.Rounds || res.Levels != ref.Levels || res.Converged != ref.Converged ||
						math.Float64bits(res.Modularity) != math.Float64bits(ref.Modularity) {
						t.Fatalf("%s/%s/%s/%dh: %d rounds, %d levels, converged %v, Q %v; %s: %d, %d, %v, %v",
							algo.name, gname, v, hosts, res.Rounds, res.Levels, res.Converged, res.Modularity,
							npm.Full, ref.Rounds, ref.Levels, ref.Converged, ref.Modularity)
					}
					for n := range ref.Assignment {
						if res.Assignment[n] != ref.Assignment[n] {
							t.Fatalf("%s/%s/%s/%dh: node %d assigned %d, %s assigned %d",
								algo.name, gname, v, hosts, n, res.Assignment[n], npm.Full, ref.Assignment[n])
						}
					}
				}
			}
		}
	}
}
