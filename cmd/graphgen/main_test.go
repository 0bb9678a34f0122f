package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

// readGraph loads path by its extension: KMB2 through the streaming
// build, as gen.Load does, and text through the in-memory parser rather
// than the streaming path the commands use.
func readGraph(t *testing.T, path string) *graph.Graph {
	t.Helper()
	if strings.HasSuffix(path, ".kmb2") {
		src, err := graph.OpenKMB2(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer src.Close()
		g, err := graph.NewStreamBuilder(src).SetWorkers(1).Build()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return g
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// requireSameGraph checks CSR shape, destinations and weight bits.
func requireSameGraph(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() ||
		want.Weighted() != got.Weighted() {
		t.Fatalf("%s: shape %d/%d nodes, %d/%d edges, weighted %v/%v", label,
			want.NumNodes(), got.NumNodes(), want.NumEdges(), got.NumEdges(),
			want.Weighted(), got.Weighted())
	}
	for n := 0; n < want.NumNodes(); n++ {
		lo, hi := want.EdgeRange(graph.NodeID(n))
		glo, ghi := got.EdgeRange(graph.NodeID(n))
		if lo != glo || hi != ghi {
			t.Fatalf("%s: node %d edge range [%d,%d) vs [%d,%d)", label, n, lo, hi, glo, ghi)
		}
		for e := lo; e < hi; e++ {
			if want.Dst(e) != got.Dst(e) ||
				math.Float64bits(want.Weight(e)) != math.Float64bits(got.Weight(e)) {
				t.Fatalf("%s: node %d edge %d differs", label, n, e)
			}
		}
	}
}

// TestGenerateConvertRoundTrip drives both subcommands end to end:
// generate (text, KMB2, stdout) → convert text → KMB2 → text, checking
// every output graph bit for bit against the generator.
func TestGenerateConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	run := func(f func([]string) error, args ...string) {
		t.Helper()
		if err := f(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	want := gen.Grid(12, 9, true, 7)
	grid := []string{"-type", "grid", "-rows", "12", "-cols", "9", "-seed", "7"}

	run(runGenerate, append(grid, "-out", at("g.el"))...)
	run(runGenerate, append(grid, "-out", at("g.kmb2"))...)
	requireSameGraph(t, "generate text", want, readGraph(t, at("g.el")))
	requireSameGraph(t, "generate kmb2", want, readGraph(t, at("g.kmb2")))

	// No -out: text on stdout.
	stdout, err := os.Create(at("stdout.el"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	err = runGenerate(grid)
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "generate stdout", want, readGraph(t, at("stdout.el")))

	run(runConvert, "-in", at("g.el"), "-out", at("conv.kmb2"), "-block-edges", "16", "-workers", "3")
	requireSameGraph(t, "convert text->kmb2", want, readGraph(t, at("conv.kmb2")))
	run(runConvert, "-in", at("conv.kmb2"), "-out", at("back.el"), "-workers", "2")
	requireSameGraph(t, "convert kmb2->text", want, readGraph(t, at("back.el")))
	orig, err := os.ReadFile(at("g.el"))
	if err != nil {
		t.Fatal(err)
	}
	if back, err := os.ReadFile(at("back.el")); err != nil || string(back) != string(orig) {
		t.Fatalf("text -> kmb2 -> text is not byte-identical (err=%v)", err)
	}
}

// TestGenerateEveryType pins each -type's flags to its generator call:
// the graph written as KMB2 and as text is bit-identical to calling the
// generator directly with the same parameters.
func TestGenerateEveryType(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want *graph.Graph
	}{
		{"grid", []string{"-type", "grid", "-rows", "7", "-cols", "11", "-seed", "3"}, gen.Grid(7, 11, true, 3)},
		{"grid-unweighted", []string{"-type", "grid", "-rows", "6", "-cols", "6", "-weighted=false"}, gen.Grid(6, 6, false, 42)},
		{"rmat", []string{"-type", "rmat", "-scale", "7", "-edgefactor", "4", "-seed", "5"}, gen.RMAT(7, 4, true, 5)},
		{"er", []string{"-type", "er", "-nodes", "200", "-edges", "900", "-seed", "8"}, gen.ErdosRenyi(200, 900, true, 8)},
		{"chain", []string{"-type", "chain", "-nodes", "120", "-weighted=false"}, gen.Chain(120, false, 42)},
		{"communities", []string{"-type", "communities", "-k", "3", "-size", "25", "-seed", "9"}, gen.Communities(3, 25, 6, 1, true, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{"g.kmb2", "g.el"} {
				path := filepath.Join(dir, name)
				if err := runGenerate(append(tc.args, "-out", path)); err != nil {
					t.Fatalf("%v: %v", tc.args, err)
				}
				requireSameGraph(t, name, tc.want, readGraph(t, path))
			}
		})
	}
}

// TestRejectsKMB1AndBadUsage pins the input checks: a file with the
// retired KMB1 magic fails with an error naming the format (not a text
// parse error quoting binary bytes), and a missing -in/-out is a usage
// error.
func TestRejectsKMB1AndBadUsage(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.kmb")
	if err := os.WriteFile(old, []byte("KMB1\x09\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []struct {
		name string
		run  func([]string) error
	}{{"convert", runConvert}} {
		t.Run(cmd.name+"/kmb1", func(t *testing.T) {
			err := cmd.run([]string{"-in", old, "-out", filepath.Join(dir, cmd.name+".kmb2")})
			if err == nil || !strings.Contains(err.Error(), "KMB1") {
				t.Errorf("%s of a KMB1 file: err = %v, want an error naming KMB1", cmd.name, err)
			}
		})
		t.Run(cmd.name+"/no-out", func(t *testing.T) {
			if err := cmd.run([]string{"-in", old}); !errors.Is(err, errUsage) {
				t.Errorf("%s without -out: err = %v, want a usage error", cmd.name, err)
			}
		})
		t.Run(cmd.name+"/no-in", func(t *testing.T) {
			if err := cmd.run([]string{"-out", filepath.Join(dir, "x.el")}); !errors.Is(err, errUsage) {
				t.Errorf("%s without -in: err = %v, want a usage error", cmd.name, err)
			}
		})
	}
	t.Run("generate/no-type", func(t *testing.T) {
		if err := runGenerate(nil); !errors.Is(err, errUsage) {
			t.Errorf("generate without -preset/-type: err = %v, want a usage error", err)
		}
	})
}
