// Package baselines_test exercises the three third-party system
// reimplementations the paper compares against.
package baselines_test

import (
	"math"
	"slices"
	"testing"

	"kimbap/internal/algorithms"
	"kimbap/internal/baselines/galois"
	"kimbap/internal/baselines/gluon"
	"kimbap/internal/baselines/vite"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

func TestGluonCCLPMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid(10, 10, false, 1),
		"rmat": gen.RMAT(8, 6, false, 2),
		"er":   gen.ErdosRenyi(150, 120, false, 4),
	}
	for name, g := range graphs {
		want := graph.ReferenceComponents(g)
		for _, hosts := range []int{1, 2, 4} {
			got, stats, err := gluon.CCLP(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%d hosts: node %d = %d, want %d", name, hosts, i, got[i], want[i])
				}
			}
			if stats.Rounds == 0 {
				t.Fatalf("%s: no rounds recorded", name)
			}
		}
	}
}

func TestViteLouvainQuality(t *testing.T) {
	g := gen.Communities(6, 30, 5, 1, true, 21)
	res, err := vite.Louvain(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity < 0.35 {
		t.Fatalf("Vite modularity %.3f too low", res.Modularity)
	}
}

func TestGaloisCCMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid(10, 10, false, 1),
		"rmat": gen.RMAT(8, 6, false, 2),
	}
	for name, g := range graphs {
		want := graph.ReferenceComponents(g)
		for _, threads := range []int{1, 4} {
			lp := galois.CCLP(g, threads)
			sv := galois.CCSV(g, threads)
			for i := range want {
				if lp[i] != want[i] {
					t.Fatalf("%s LP: node %d = %d, want %d", name, i, lp[i], want[i])
				}
				if sv[i] != want[i] {
					t.Fatalf("%s SV: node %d = %d, want %d", name, i, sv[i], want[i])
				}
			}
		}
	}
}

func TestGaloisMISValid(t *testing.T) {
	// Galois runs the distributed MIS's priority rule asynchronously;
	// priority-ordered greedy MIS is unique for a given order, so it must
	// select the distributed implementation's set.
	for _, g := range []*graph.Graph{gen.Grid(9, 9, false, 1), gen.Star(40), gen.RMAT(8, 6, false, 2)} {
		c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, g.NumNodes())
		c.Run(func(h *runtime.Host) { algorithms.MIS(h, algorithms.Config{}, want) })
		c.Close()
		for _, threads := range []int{1, 4} {
			set := galois.MIS(g, threads)
			if !graph.IsValidMIS(g, set) {
				t.Fatal("galois MIS invalid")
			}
			if !slices.Equal(set, want) {
				t.Fatalf("galois MIS (%d threads) differs from the distributed set", threads)
			}
		}
	}
}

func TestGaloisMSFMatchesKruskal(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Grid(8, 8, true, 7), gen.RMAT(7, 5, true, 8)} {
		want := graph.ReferenceMSFWeight(g)
		for _, threads := range []int{1, 4} {
			got, labels := galois.MSF(g, threads)
			if math.Abs(got-want) > 1e-6*want {
				t.Fatalf("galois MSF weight %.4f, want %.4f (threads=%d)", got, want, threads)
			}
			ref := graph.ReferenceComponents(g)
			seen := map[graph.NodeID]graph.NodeID{}
			for i := range ref {
				if w, ok := seen[labels[i]]; ok && w != ref[i] {
					t.Fatal("galois MSF labels split a component")
				}
				seen[labels[i]] = ref[i]
			}
		}
	}
}

func TestGaloisLouvainQuality(t *testing.T) {
	g := gen.Communities(6, 30, 5, 1, true, 21)
	res := galois.Louvain(g, 4)
	if res.Modularity < 0.4 {
		t.Fatalf("galois Louvain modularity %.3f", res.Modularity)
	}
	q := graph.Modularity(g, res.Assignment)
	if math.Abs(q-res.Modularity) > 1e-9 {
		t.Fatalf("reported Q mismatch: %.6f vs %.6f", res.Modularity, q)
	}
}

func TestGaloisLeidenQuality(t *testing.T) {
	g := gen.Communities(6, 30, 5, 1, true, 21)
	res := galois.Leiden(g, 4)
	if res.Modularity < 0.35 {
		t.Fatalf("galois Leiden modularity %.3f", res.Modularity)
	}
}
