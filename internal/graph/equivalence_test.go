package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Builder.Build and BuildSymmetric promise bit-identical output to the
// serial reference chains at every worker count. These tests sweep the
// promise across the feature matrix that changes the build's shape:
// weighted columns, duplicate edges, self-loops, and empty nodes (nodes
// with no incident edges, so counting-sort buckets of size zero).

type edgeCase struct {
	weighted  bool
	dups      bool
	selfLoops bool
	emptyTail bool // leave the top quarter of node IDs untouched
}

func (c edgeCase) name() string {
	return fmt.Sprintf("weighted=%v/dups=%v/selfloops=%v/empty=%v",
		c.weighted, c.dups, c.selfLoops, c.emptyTail)
}

func allEdgeCases() []edgeCase {
	var cases []edgeCase
	for _, w := range []bool{false, true} {
		for _, d := range []bool{false, true} {
			for _, s := range []bool{false, true} {
				for _, e := range []bool{false, true} {
					cases = append(cases, edgeCase{w, d, s, e})
				}
			}
		}
	}
	return cases
}

// fillBuilder streams the same pseudo-random edges into b. Weights are
// drawn from a small integer set so duplicate (src, dst) pairs frequently
// collide on weight too, exercising Dedup's full (src, dst, weight) order.
func fillBuilder(b *Builder, c edgeCase, n, m int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	span := n
	if c.emptyTail {
		span = n - n/4
		if span < 1 {
			span = 1
		}
	}
	for i := 0; i < m; i++ {
		s := NodeID(r.Intn(span))
		d := NodeID(r.Intn(span))
		if !c.selfLoops && s == d {
			d = (d + 1) % NodeID(span)
			if span == 1 {
				continue
			}
		}
		if c.weighted {
			b.AddWeightedEdge(s, d, float64(r.Intn(8)+1))
		} else {
			b.AddEdge(s, d)
		}
		if c.dups && i%3 == 0 {
			if c.weighted {
				b.AddWeightedEdge(s, d, float64(r.Intn(8)+1))
			} else {
				b.AddEdge(s, d)
			}
		}
	}
}

func requireGraphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if !reflect.DeepEqual(want.offsets, got.offsets) {
		t.Fatalf("offsets differ:\nwant %v\ngot  %v", want.offsets, got.offsets)
	}
	if !reflect.DeepEqual(want.dsts, got.dsts) {
		t.Fatalf("dsts differ:\nwant %v\ngot  %v", want.dsts, got.dsts)
	}
	if !reflect.DeepEqual(want.weights, got.weights) {
		t.Fatalf("weights differ:\nwant %v\ngot  %v", want.weights, got.weights)
	}
}

var workerCounts = []int{1, 2, 4, 8}

// buildSymmetric runs BuildSymmetric over b's columns at b's worker count.
func buildSymmetric(b *Builder) *Graph {
	return BuildSymmetric(b.numNodes, b.srcs, b.dsts, b.weights, b.workers)
}

// pipelines pairs each serial reference chain with its parallel path:
// BuildSymmetric's two stages, the symmetric column source and dedupRows,
// are each checked alone as well as together.
var pipelines = []struct {
	name     string
	serial   func(b *Builder) *Graph
	parallel func(b *Builder) *Graph
}{
	{"build", (*Builder).BuildSerial, (*Builder).Build},
	{"symmetrize+build",
		func(b *Builder) *Graph { b.SymmetrizeSerial(); return b.BuildSerial() },
		func(b *Builder) *Graph { return buildColumns(b.numNodes, b.srcs, b.dsts, b.weights, true, b.workers) }},
	{"dedup+build",
		func(b *Builder) *Graph { b.DedupSerial(); return b.BuildSerial() },
		func(b *Builder) *Graph { return dedupRows(b.Build(), b.workers) }},
	{"symmetrize+dedup+build",
		func(b *Builder) *Graph { b.SymmetrizeSerial(); b.DedupSerial(); return b.BuildSerial() },
		buildSymmetric},
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	const n, m = 97, 600
	for _, ec := range allEdgeCases() {
		for _, pl := range pipelines {
			ref := NewBuilder(n)
			fillBuilder(ref, ec, n, m, 42)
			want := pl.serial(ref)
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", pl.name, ec.name(), w), func(t *testing.T) {
					b := NewBuilder(n).SetWorkers(w)
					fillBuilder(b, ec, n, m, 42)
					requireGraphsIdentical(t, want, pl.parallel(b))
				})
			}
		}
	}
}

// The stage-level checks pin BuildSymmetric's stages on their own. The
// symmetric column source's blocks, drained, must hold SymmetrizeSerial's
// edge multiset, before StreamBuilder's sort could mask a dropped or
// extra edge; dedupRows over the serial reference CSR must equal
// DedupSerial, without the parallel build's help.
func TestParallelColumnOpsMatchSerial(t *testing.T) {
	const n, m = 53, 400
	for _, ec := range allEdgeCases() {
		symRef := NewBuilder(n)
		fillBuilder(symRef, ec, n, m, 7)
		symRef.SymmetrizeSerial()
		dedupRef := NewBuilder(n)
		fillBuilder(dedupRef, ec, n, m, 7)
		dedupRef.DedupSerial()
		for _, w := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", ec.name(), w), func(t *testing.T) {
				b := NewBuilder(n)
				fillBuilder(b, ec, n, m, 7)
				src := newColumnSource(n, b.srcs, b.dsts, b.weights, true, w)
				requireSameEdgeMultiset(t, symRef, drainSource(t, src))

				b = NewBuilder(n)
				fillBuilder(b, ec, n, m, 7)
				requireGraphsIdentical(t, dedupRef.BuildSerial(), dedupRows(b.BuildSerial(), w))
			})
		}
	}
}

// drainSource reads every block of src into a fresh Builder's columns.
func drainSource(t *testing.T, src BlockSource) *Builder {
	t.Helper()
	out := NewBuilder(src.NumNodes())
	var blk EdgeBlock
	for i := 0; i < src.NumBlocks(); i++ {
		if err := src.ReadBlock(i, &blk); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		out.srcs = append(out.srcs, blk.Srcs...)
		out.dsts = append(out.dsts, blk.Dsts...)
		if src.Weighted() {
			out.weights = append(out.weights, blk.Weights...)
		}
	}
	return out
}

// requireSameEdgeMultiset compares two edge columns up to edge order.
func requireSameEdgeMultiset(t *testing.T, want, got *Builder) {
	t.Helper()
	type edge struct {
		s, d NodeID
		w    float64
	}
	sorted := func(b *Builder) []edge {
		es := make([]edge, len(b.srcs))
		for i := range es {
			es[i] = edge{s: b.srcs[i], d: b.dsts[i]}
			if b.weights != nil {
				es[i].w = b.weights[i]
			}
		}
		slices.SortFunc(es, func(x, y edge) int {
			if c := cmp.Compare(x.s, y.s); c != 0 {
				return c
			}
			if c := cmp.Compare(x.d, y.d); c != 0 {
				return c
			}
			return cmp.Compare(x.w, y.w)
		})
		return es
	}
	if (want.weights == nil) != (got.weights == nil) {
		t.Fatalf("weighted %v, want %v", got.weights != nil, want.weights != nil)
	}
	if w, g := sorted(want), sorted(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("edge multisets differ:\nwant %v\ngot  %v", w, g)
	}
}

func TestBuildEmptyAndDegenerate(t *testing.T) {
	for _, w := range workerCounts {
		for _, pl := range pipelines {
			g := pl.parallel(NewBuilder(0).SetWorkers(w))
			if g.NumNodes() != 0 || g.NumEdges() != 0 {
				t.Fatalf("%s/workers=%d: empty build = %d nodes %d edges", pl.name, w, g.NumNodes(), g.NumEdges())
			}
			g = pl.parallel(NewBuilder(5).SetWorkers(w))
			if g.NumNodes() != 5 || g.NumEdges() != 0 {
				t.Fatalf("%s/workers=%d: edgeless build = %d nodes %d edges", pl.name, w, g.NumNodes(), g.NumEdges())
			}
		}
		b := NewBuilder(3).SetWorkers(w)
		b.AddEdge(2, 0)
		g := buildSymmetric(b)
		if g.NumEdges() != 2 || !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
			t.Fatalf("workers=%d: single-edge pipeline wrong: %d edges", w, g.NumEdges())
		}
	}
}

func TestParallelBuildPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("parallel Build did not panic on out-of-range edge")
		}
	}()
	b := NewBuilder(2).SetWorkers(4)
	for i := 0; i < 64; i++ {
		b.AddEdge(0, 1)
	}
	b.AddEdge(0, 5)
	b.Build()
}

// maxBuildAllocs is Build's allocation count at 4 workers when it moved
// onto StreamBuilder.
const maxBuildAllocs = 37

// TestBuildAllocsIndependentOfSize holds Build's allocation count to a
// constant: the output graph, the count matrix, one block per worker and
// the dispatch closures, none of which grows with the graph. Both sizes
// stay below par.PrefixSum's parallel cutoff, so a count that differs
// between them is a per-node or per-edge allocation.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		b := NewBuilder(n).SetWorkers(4)
		fillBuilder(b, edgeCase{weighted: true, dups: true}, n, 16*n, 3)
		return testing.AllocsPerRun(20, func() { b.Build() })
	}
	small, large := allocs(200), allocs(3200)
	if small != large {
		t.Fatalf("Build allocates %.1f times per run at 200 nodes but %.1f at 3200", small, large)
	}
	if small > maxBuildAllocs {
		t.Fatalf("Build allocates %.1f times per run, want <= %d", small, maxBuildAllocs)
	}
}
