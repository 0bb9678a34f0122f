package gen

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kimbap/internal/graph"
)

func TestGridStructure(t *testing.T) {
	g := Grid(4, 5, false, 1)
	if g.NumNodes() != 20 {
		t.Fatalf("NumNodes = %d, want 20", g.NumNodes())
	}
	// 4x5 grid: horizontal edges 4*4=16, vertical 3*5=15, doubled = 62.
	if g.NumEdges() != 62 {
		t.Fatalf("NumEdges = %d, want 62", g.NumEdges())
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("grid max degree = %d, want <= 4", g.MaxDegree())
	}
	labels := graph.ReferenceComponents(g)
	if graph.NumComponents(labels) != 1 {
		t.Fatal("grid must be connected")
	}
}

func TestGridDeterministic(t *testing.T) {
	a := Grid(6, 6, true, 7)
	b := Grid(6, 6, true, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different grids")
	}
	for n := 0; n < a.NumNodes(); n++ {
		wa, wb := a.EdgeWeights(graph.NodeID(n)), b.EdgeWeights(graph.NodeID(n))
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestGridHighDiameter(t *testing.T) {
	g := Grid(20, 20, false, 1)
	if d := ApproxDiameter(g); d < 30 {
		t.Fatalf("20x20 grid diameter estimate = %d, want >= 30", d)
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g := RMAT(10, 8, false, 5)
	if g.NumNodes() != 1024 {
		t.Fatalf("NumNodes = %d, want 1024", g.NumNodes())
	}
	stats := g.ComputeStats()
	// Power law: max degree far exceeds average degree.
	if float64(stats.MaxDegree) < 8*stats.AvgDegree {
		t.Fatalf("max degree %d not skewed vs avg %.1f", stats.MaxDegree, stats.AvgDegree)
	}
	// Low diameter compared to a grid of similar size.
	if d := ApproxDiameter(g); d > 15 {
		t.Fatalf("RMAT diameter estimate = %d, want small", d)
	}
}

func TestRMATSymmetric(t *testing.T) {
	g := RMAT(8, 4, false, 9)
	for n := 0; n < g.NumNodes(); n++ {
		for _, v := range g.Neighbors(graph.NodeID(n)) {
			if !g.HasEdge(v, graph.NodeID(n)) {
				t.Fatalf("edge %d->%d has no reverse", n, v)
			}
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, b := RMAT(9, 4, true, 3), RMAT(9, 4, true, 3)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different RMAT graphs")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 400, false, 2)
	if g.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 800 {
		t.Fatalf("NumEdges = %d out of plausible range", g.NumEdges())
	}
}

func TestChain(t *testing.T) {
	g := Chain(50, false, 1)
	if g.NumEdges() != 98 {
		t.Fatalf("chain edges = %d, want 98", g.NumEdges())
	}
	if d := ApproxDiameter(g); d != 49 {
		t.Fatalf("chain diameter = %d, want 49", d)
	}
}

func TestStar(t *testing.T) {
	g := Star(100)
	if g.Degree(0) != 99 {
		t.Fatalf("hub degree = %d, want 99", g.Degree(0))
	}
	if g.MaxDegree() != 99 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
}

func TestCommunitiesQuality(t *testing.T) {
	g := Communities(4, 50, 6, 1, false, 11)
	if g.NumNodes() != 200 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	truth := make([]graph.NodeID, 200)
	for i := range truth {
		truth[i] = graph.NodeID(i / 50)
	}
	q := graph.Modularity(g, truth)
	if q < 0.4 {
		t.Fatalf("planted partition modularity = %.3f, want > 0.4", q)
	}
}

func TestPresets(t *testing.T) {
	for _, p := range Presets {
		g := BuildSmall(p)
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Errorf("preset %s produced empty graph", p)
		}
		if !g.Weighted() {
			t.Errorf("preset %s should be weighted", p)
		}
	}
}

func TestPresetGraphClasses(t *testing.T) {
	road := BuildSmall(RoadEurope)
	social := BuildSmall(Friendster)
	if road.MaxDegree() > 4 {
		t.Errorf("road analogue max degree %d, want <= 4", road.MaxDegree())
	}
	rs, ss := road.ComputeStats(), social.ComputeStats()
	if float64(ss.MaxDegree)/ss.AvgDegree < float64(rs.MaxDegree)/rs.AvgDegree {
		t.Error("social analogue should be more degree-skewed than road")
	}
	if ApproxDiameter(road) <= ApproxDiameter(social) {
		t.Error("road analogue should have larger diameter than social")
	}
}

func TestApproxDiameterEmpty(t *testing.T) {
	var g graph.Graph
	if d := ApproxDiameter(&g); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
}

func TestUnknownPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown preset")
		}
	}()
	Build(Preset("nope"))
}

func TestLoadSpecs(t *testing.T) {
	g, err := Load("small:friendster")
	if err != nil || g.NumNodes() == 0 {
		t.Fatalf("small preset: %v", err)
	}
	if _, err := Load("small:nope"); err == nil {
		t.Fatal("unknown small preset accepted")
	}
	if _, err := Load("/definitely/not/a/file"); err == nil {
		t.Fatal("missing file accepted")
	}
	// Round-trip through an edge-list file.
	path := t.TempDir() + "/g.el"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	small := Grid(4, 4, false, 1)
	if err := graph.WriteEdgeList(f, small); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != small.NumNodes() || loaded.NumEdges() != small.NumEdges() {
		t.Fatal("file round trip mismatch")
	}
}

// TestLoadGraphFiles pins Load's file formats: for every generator a
// KMB2 file streams back bit-identical to the generator's graph and a
// text edge list parses to the same graph; a text file without a nodes
// directive still infers its node count; and a file in the retired KMB1
// format is rejected with an error naming it.
func TestLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", Grid(20, 20, true, 3)},
		{"rmat", RMAT(8, 8, false, 5)},
		{"er", ErdosRenyi(300, 1200, true, 9)},
		{"chain", Chain(150, false, 2)},
		{"star", Star(40)},
		{"communities", Communities(4, 30, 6, 1, true, 11)},
	} {
		t.Run(tc.name+"/kmb2", func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".kmb2")
			if err := graph.SaveKMB2(path, tc.g, 64); err != nil {
				t.Fatal(err)
			}
			got, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalGraphs(t, tc.name+"/kmb2", tc.g, got)
		})
		t.Run(tc.name+"/text", func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".el")
			var buf bytes.Buffer
			if err := graph.WriteEdgeList(&buf, tc.g); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalGraphs(t, tc.name+"/text", tc.g, got)
		})
	}

	t.Run("bare-text", func(t *testing.T) {
		// No nodes directive: the node count is inferred from the largest ID.
		bare := filepath.Join(dir, "bare.el")
		if err := os.WriteFile(bare, []byte("0 1\n1 0\n1 6\n6 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Load(bare)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != 7 || g.NumEdges() != 4 {
			t.Fatalf("bare edge list: %d nodes %d edges, want 7 and 4", g.NumNodes(), g.NumEdges())
		}
	})

	// Every algorithm runs on symmetrized graphs, so both formats reject an
	// edge whose reverse is missing or carries another weight, and name it.
	t.Run("one-way-text", func(t *testing.T) {
		path := filepath.Join(dir, "oneway.el")
		if err := os.WriteFile(path, []byte("0 1\n1 0\n1 2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "one-way edge 1->2") {
			t.Fatalf("Load of a one-way text edge list: err = %v, want an error naming 1->2", err)
		}
	})
	t.Run("one-way-kmb2", func(t *testing.T) {
		b := graph.NewBuilder(3)
		b.AddWeightedEdge(0, 1, 1)
		b.AddWeightedEdge(1, 0, 1)
		b.AddWeightedEdge(1, 2, 2)
		b.AddWeightedEdge(2, 1, 3)
		path := filepath.Join(dir, "oneway.kmb2")
		if err := graph.SaveKMB2(path, b.Build(), 64); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "one-way edge 1->2") {
			t.Fatalf("Load of a KMB2 file with mismatched reverse weights: err = %v, want an error naming 1->2", err)
		}
	})

	// NaN breaks the (weight, endpoints) edge order MSF and its reference
	// sort by, so both formats reject it at ingestion.
	t.Run("nan-weight-text", func(t *testing.T) {
		path := filepath.Join(dir, "nan.el")
		if err := os.WriteFile(path, []byte("nodes 4\n0 1 1\n1 2 NaN\n2 3 2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("Load of a text file with a NaN weight: err = %v, want an error naming NaN", err)
		}
	})
	t.Run("nan-weight-kmb2", func(t *testing.T) {
		b := graph.NewBuilder(4)
		b.AddWeightedEdge(0, 1, 1)
		b.AddWeightedEdge(1, 2, math.NaN())
		b.AddWeightedEdge(2, 3, 2)
		path := filepath.Join(dir, "nan.kmb2")
		if err := graph.SaveKMB2(path, b.Build(), 64); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("Load of a KMB2 file with a NaN weight: err = %v, want an error naming NaN", err)
		}
	})

	t.Run("kmb1-rejected", func(t *testing.T) {
		old := filepath.Join(dir, "old.kmb")
		if err := os.WriteFile(old, []byte("KMB1\x09\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(old); err == nil || !strings.Contains(err.Error(), "KMB1") {
			t.Fatalf("Load of a KMB1 file: err = %v, want an error naming KMB1", err)
		}
	})
}
