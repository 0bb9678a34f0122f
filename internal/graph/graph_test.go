package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return buildSymmetric(b)
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("empty graph max degree = %d", g.MaxDegree())
	}
}

func TestBuilderBasics(t *testing.T) {
	g := mkTriangle(t)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6 (symmetrized triangle)", g.NumEdges())
	}
	for n := NodeID(0); n < 3; n++ {
		if g.Degree(n) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", n, g.Degree(n))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("symmetrized edges missing")
	}
	if g.HasEdge(0, 0) {
		t.Error("unexpected self loop")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(0, 2)
	g := b.Build()
	want := []NodeID{1, 2, 3, 4}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestWeightedBuild(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 2, 2.5)
	b.AddWeightedEdge(0, 1, 1.5)
	g := b.Build()
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	ns := g.Neighbors(0)
	ws := g.EdgeWeights(0)
	if ns[0] != 1 || ws[0] != 1.5 || ns[1] != 2 || ws[1] != 2.5 {
		t.Fatalf("weighted adjacency mismatch: ns=%v ws=%v", ns, ws)
	}
	if g.TotalWeight() != 4.0 {
		t.Fatalf("TotalWeight = %v, want 4", g.TotalWeight())
	}
}

func TestDedup(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := buildSymmetric(b)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges after dedup = %d, want 2", g.NumEdges())
	}
}

func TestSymmetrizeSkipsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := buildSymmetric(b)
	if g.NumEdges() != 3 { // 0->0, 0->1, 1->0
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestBuildPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on out-of-range edge")
		}
	}()
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	b.Build()
}

func TestStats(t *testing.T) {
	g := mkTriangle(t)
	s := g.ComputeStats()
	if s.Nodes != 3 || s.Edges != 6 || s.MaxDegree != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDegree != 2.0 {
		t.Fatalf("avg degree = %v, want 2", s.AvgDegree)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for n := 0; n < a.NumNodes(); n++ {
		if !reflect.DeepEqual(a.Neighbors(NodeID(n)), b.Neighbors(NodeID(n))) {
			return false
		}
		aw, bw := a.EdgeWeights(NodeID(n)), b.EdgeWeights(NodeID(n))
		for i := range aw {
			if aw[i] != bw[i] {
				return false
			}
		}
	}
	return true
}

func randomGraph(r *rand.Rand, n, m int, weighted bool) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		s, d := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if weighted {
			b.AddWeightedEdge(s, d, float64(r.Intn(100)+1))
		} else {
			b.AddEdge(s, d)
		}
	}
	return b.Build()
}

// Property: text edge-list round-trips.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, r.Intn(50)+1, r.Intn(200), seed%2 == 0)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return graphsEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListDirectivesAndComments(t *testing.T) {
	in := "# comment\nnodes 10\n% another\n0 1\n1 2 3.5\n"
	g, err := ReadEdgeList(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10 from directive", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.Weighted() {
		t.Fatal("should be weighted due to third column")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 x\n", "nodes x\n", "0 1 2 3\n"} {
		if _, err := ReadEdgeList(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}

func TestReferenceComponents(t *testing.T) {
	// Two components: {0,1,2} triangle and {3,4} edge.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	g := buildSymmetric(b)
	labels := ReferenceComponents(g)
	if NumComponents(labels) != 2 {
		t.Fatalf("NumComponents = %d, want 2", NumComponents(labels))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("triangle not in one component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Error("edge component wrong")
	}
	if labels[0] != 0 || labels[3] != 3 {
		t.Error("labels should be min node ID of component")
	}
}

func TestReferenceMSFWeight(t *testing.T) {
	// Square with diagonal: MST should pick 3 cheapest edges that connect.
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 2)
	b.AddWeightedEdge(2, 3, 3)
	b.AddWeightedEdge(3, 0, 4)
	b.AddWeightedEdge(0, 2, 5)
	g := buildSymmetric(b)
	if w := ReferenceMSFWeight(g); w != 6 {
		t.Fatalf("MSF weight = %v, want 6 (1+2+3)", w)
	}
}

func TestReferenceMSFWeightForest(t *testing.T) {
	// Two disjoint edges: forest of two trees.
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(2, 3, 7)
	g := buildSymmetric(b)
	if w := ReferenceMSFWeight(g); w != 9 {
		t.Fatalf("forest weight = %v, want 9", w)
	}
}

func TestModularity(t *testing.T) {
	// Two triangles joined by one edge; perfect 2-community split has
	// high modularity, all-in-one has zero-ish.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	b.AddEdge(0, 3)
	g := buildSymmetric(b)
	good := []NodeID{0, 0, 0, 1, 1, 1}
	all := []NodeID{0, 0, 0, 0, 0, 0}
	qg, qa := Modularity(g, good), Modularity(g, all)
	if qg <= qa {
		t.Fatalf("good split modularity %v should beat single community %v", qg, qa)
	}
	if qg < 0.3 {
		t.Fatalf("good split modularity %v suspiciously low", qg)
	}
	if qa > 1e-9 || qa < -1e-9 {
		t.Fatalf("single community modularity = %v, want ~0", qa)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	var g Graph
	if q := Modularity(&g, nil); q != 0 {
		t.Fatalf("empty modularity = %v", q)
	}
}

func TestIsValidMIS(t *testing.T) {
	g := mkTriangle(t)
	if !IsValidMIS(g, []bool{true, false, false}) {
		t.Error("single vertex of triangle is a valid MIS")
	}
	if IsValidMIS(g, []bool{true, true, false}) {
		t.Error("adjacent pair accepted as independent")
	}
	if IsValidMIS(g, []bool{false, false, false}) {
		t.Error("empty set accepted as maximal")
	}
}

func TestIsValidMISIsolatedNode(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := buildSymmetric(b)
	// Node 2 is isolated: must be in the set.
	if IsValidMIS(g, []bool{true, false, false}) {
		t.Error("isolated node excluded but accepted")
	}
	if !IsValidMIS(g, []bool{true, false, true}) {
		t.Error("valid MIS with isolated node rejected")
	}
}

func TestMISTieBreakIsBijection(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 63, 64, 65, 1000, 65536} {
		seen := make([]bool, n)
		for id := uint64(0); id < n; id++ {
			v := misTieBreak(id, n)
			if v >= n {
				t.Fatalf("n=%d: misTieBreak(%d) = %d, outside [0, n)", n, id, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: misTieBreak maps two IDs to %d", n, v)
			}
			seen[v] = true
			if again := misTieBreak(id, n); again != v {
				t.Fatalf("n=%d: misTieBreak(%d) = %d then %d", n, id, v, again)
			}
		}
	}
}
