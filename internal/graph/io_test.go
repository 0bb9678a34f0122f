package graph

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadEdgeListDeclaredRange pins the satellite fix: with a nodes
// directive, out-of-range endpoints are an error instead of silently
// growing the graph.
func TestReadEdgeListDeclaredRange(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("nodes 3\n0 1\n2 5\n")); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("dst beyond declared: err = %v", err)
	}
	if _, err := ReadEdgeList(strings.NewReader("0 1\n7 2\nnodes 3\n")); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("late directive: err = %v", err)
	}
	g, err := ReadEdgeList(strings.NewReader("nodes 3\n0 1\n2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("in-range graph = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// Without a directive the node count is still inferred from max ID.
	g, err = ReadEdgeList(strings.NewReader("0 1\n7 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 {
		t.Fatalf("inferred nodes = %d, want 8", g.NumNodes())
	}
	if _, err := ReadEdgeList(strings.NewReader("nodes -3\n")); err == nil ||
		!strings.Contains(err.Error(), "bad nodes directive") {
		t.Fatalf("negative directive: err = %v", err)
	}
}

// TestIsKMB2File pins the format sniff: the KMB2 magic selects KMB2,
// anything else (empty and short files included) is text, and the
// retired KMB1 magic is an error that names the format.
func TestIsKMB2File(t *testing.T) {
	dir := t.TempDir()
	kmb2 := filepath.Join(dir, "g.kmb2")
	if err := SaveKMB2(kmb2, mkTriangle(t), 0); err != nil {
		t.Fatal(err)
	}
	if ok, err := IsKMB2File(kmb2); err != nil || !ok {
		t.Fatalf("kmb2 file: ok=%v err=%v", ok, err)
	}
	for name, data := range map[string]string{
		"text": "nodes 3\n0 1\n", "empty": "", "short": "0 1", "kmb": "KMB9....",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if ok, err := IsKMB2File(p); err != nil || ok {
			t.Errorf("%s: ok=%v err=%v, want text", name, ok, err)
		}
	}
	old := filepath.Join(dir, "g.kmb")
	if err := os.WriteFile(old, []byte("KMB1\x03\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IsKMB2File(old); err == nil || !strings.Contains(err.Error(), "KMB1") {
		t.Fatalf("KMB1 file: err = %v, want an error naming KMB1", err)
	}
	if _, err := IsKMB2File(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file: expected error")
	}
}
