package graph

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// The in-CSR promises bit-identity with the explicit Transpose oracle —
// same offsets, same sorted source columns, same weights — from both
// construction paths (lazy EnsureInCSR over a built graph and the fused
// dual-column stream scatter), at every worker count.

// requireInCSRMatchesTranspose compares g's transpose CSR against the
// serial Transpose oracle. The weight comparison is by content: Transpose
// of a weighted zero-edge graph drops the weight column (its Builder
// never sees a weighted edge) while the in-CSR keeps an empty one.
func requireInCSRMatchesTranspose(t *testing.T, g *Graph) {
	t.Helper()
	if !g.HasInCSR() {
		t.Fatal("in-CSR not materialized")
	}
	want := Transpose(g)
	if !reflect.DeepEqual(want.offsets, g.inOffsets) {
		t.Fatalf("in-offsets differ:\nwant %v\ngot  %v", want.offsets, g.inOffsets)
	}
	if !reflect.DeepEqual(want.dsts, g.inSrcs) {
		t.Fatalf("in-srcs differ:\nwant %v\ngot  %v", want.dsts, g.inSrcs)
	}
	if len(want.weights) != 0 || len(g.inWeights) != 0 {
		if !reflect.DeepEqual(want.weights, g.inWeights) {
			t.Fatalf("in-weights differ:\nwant %v\ngot  %v", want.weights, g.inWeights)
		}
	}
	// Accessor-level spot checks so the index arithmetic is covered too.
	for v := 0; v < g.NumNodes(); v++ {
		n := NodeID(v)
		if g.InDegree(n) != want.Degree(n) {
			t.Fatalf("InDegree(%d) = %d, transpose degree %d", v, g.InDegree(n), want.Degree(n))
		}
		if !slices.Equal(g.InNeighbors(n), want.Neighbors(n)) {
			t.Fatalf("InNeighbors(%d) = %v, want %v", v, g.InNeighbors(n), want.Neighbors(n))
		}
		lo, hi := g.InEdgeRange(n)
		wlo, whi := want.EdgeRange(n)
		if lo != wlo || hi != whi {
			t.Fatalf("InEdgeRange(%d) = [%d,%d), want [%d,%d)", v, lo, hi, wlo, whi)
		}
		for e := lo; e < hi; e++ {
			if g.InSrc(e) != want.Dst(e) || g.InWeight(e) != want.Weight(e) {
				t.Fatalf("in-edge %d = (%d, %g), want (%d, %g)",
					e, g.InSrc(e), g.InWeight(e), want.Dst(e), want.Weight(e))
			}
		}
	}
}

func TestEnsureInCSRMatchesTranspose(t *testing.T) {
	const n, m = 61, 500
	for _, ec := range allEdgeCases() {
		for _, w := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", ec.name(), w), func(t *testing.T) {
				b := NewBuilder(n)
				fillBuilder(b, ec, n, m, 7)
				g := b.BuildSerial()
				g.EnsureInCSR(w)
				requireInCSRMatchesTranspose(t, g)
				if fp := g.InCSRFootprint(); fp < int64(len(g.inOffsets))*8 {
					t.Fatalf("InCSRFootprint %d too small", fp)
				}
			})
		}
	}
}

func TestEnsureInCSRDegenerate(t *testing.T) {
	// Empty graph.
	g := NewBuilder(0).Build()
	g.EnsureInCSR(4)
	requireInCSRMatchesTranspose(t, g)

	// Nodes but no edges (weighted column absent either way).
	g = NewBuilder(9).Build()
	g.EnsureInCSR(4)
	requireInCSRMatchesTranspose(t, g)

	// Self-loops and duplicate edges only.
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	b.AddEdge(1, 1)
	b.AddEdge(2, 0)
	b.AddEdge(2, 0)
	b.AddEdge(0, 0)
	g = b.Build()
	g.EnsureInCSR(2)
	requireInCSRMatchesTranspose(t, g)

	// Duplicate weighted edges with colliding weights.
	wb := NewBuilder(4)
	wb.AddWeightedEdge(0, 2, 3)
	wb.AddWeightedEdge(1, 2, 1)
	wb.AddWeightedEdge(0, 2, 1)
	wb.AddWeightedEdge(3, 3, 2)
	wb.AddWeightedEdge(0, 2, 3)
	g = wb.Build()
	g.EnsureInCSR(3)
	requireInCSRMatchesTranspose(t, g)
}

func TestEnsureInCSRIdempotent(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	g.EnsureInCSR(2)
	srcs := g.inSrcs
	g.EnsureInCSR(8) // must not rebuild
	if &g.inSrcs[0] != &srcs[0] {
		t.Fatal("EnsureInCSR rebuilt an existing in-CSR")
	}
}

// TestStreamInCSRMatchesTranspose covers the fused dual-column scatter:
// pass 1 counts both degree arrays, pass 2 scatters both columns, and the
// result must equal both the Transpose oracle and the lazy EnsureInCSR
// path bit for bit.
func TestStreamInCSRMatchesTranspose(t *testing.T) {
	const n, m = 67, 450
	cases := []edgeCase{
		{},
		{dups: true, selfLoops: true},
		{weighted: true, dups: true},
		{weighted: true, selfLoops: true, emptyTail: true},
	}
	for _, ec := range cases {
		ref := NewBuilder(n)
		fillBuilder(ref, ec, n, m, 23)
		srcs := slices.Clone(ref.srcs)
		dsts := slices.Clone(ref.dsts)
		weights := slices.Clone(ref.weights)
		want := ref.BuildSerial()
		want.EnsureInCSR(1)

		path := filepath.Join(t.TempDir(), "g.kmb2")
		writeKMB2Columns(t, path, n, srcs, dsts, weights, 7)
		src, err := OpenKMB2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		for _, w := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", ec.name(), w), func(t *testing.T) {
				got, err := NewStreamBuilder(src).SetWorkers(w).WithInCSR(true).Build()
				if err != nil {
					t.Fatal(err)
				}
				requireGraphsIdentical(t, want, got)
				requireInCSRMatchesTranspose(t, got)
				if !reflect.DeepEqual(want.inOffsets, got.inOffsets) ||
					!reflect.DeepEqual(want.inSrcs, got.inSrcs) {
					t.Fatal("fused in-CSR differs from EnsureInCSR")
				}
			})
		}
	}
}

func TestStreamInCSREmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, []byte("nodes 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenText(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	g, err := NewStreamBuilder(ts).WithInCSR(true).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasInCSR() || g.NumNodes() != 6 {
		t.Fatalf("HasInCSR=%v nodes=%d", g.HasInCSR(), g.NumNodes())
	}
	requireInCSRMatchesTranspose(t, g)
}

// FuzzStreamInCSR exercises the dual-column scatter the way FuzzReadKMB2
// exercises the single-column one: arbitrary KMB2 bytes either fail or
// produce a graph whose fused transpose matches the oracle.
func FuzzStreamInCSR(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		for _, be := range []int{3, DefaultBlockEdges} {
			path := filepath.Join(f.TempDir(), "seed.kmb2")
			if err := SaveKMB2(path, g, be); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			addMutants(f, data)
			addKMB2BlockMutants(f, data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewKMB2Source(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if s.NumNodes() > 1<<20 {
			t.Skip("node count beyond the fuzz allocation bound")
		}
		g, err := NewStreamBuilder(s).SetWorkers(2).WithInCSR(true).Build()
		if err != nil {
			return
		}
		checkGraphInvariants(t, g)
		requireInCSRMatchesTranspose(t, g)
	})
}
