package graph

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The streaming build promises bit-identical output to the in-memory
// pipeline for the same edge sequence, from every source format, at
// every worker count and block/shard size. These tests sweep that
// promise across {text, KMB2} × {1, 4, 8} workers × {mmap,
// ReadAt} × misaligned block boundaries and comment-heavy text.

// edgeListText renders builder columns as a text edge list in insertion
// order. decorate interleaves comments, blank lines, stray whitespace,
// and CR line endings — the comment-heavy shape shard parsing must
// handle at arbitrary boundaries.
func edgeListText(b *Builder, n int, decorate bool) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# edges follow\nnodes %d\n", n)
	for i := range b.srcs {
		if decorate && i%5 == 0 {
			buf.WriteString("# interleaved comment\n\n")
		}
		if decorate && i%7 == 0 {
			buf.WriteString(" \t")
		}
		if b.weights != nil {
			fmt.Fprintf(&buf, "%d\t%d %g", b.srcs[i], b.dsts[i], b.weights[i])
		} else {
			fmt.Fprintf(&buf, "%d %d", b.srcs[i], b.dsts[i])
		}
		if decorate && i%11 == 0 {
			buf.WriteString(" \r")
		}
		buf.WriteByte('\n')
	}
	if decorate {
		buf.WriteString("% trailing comment without newline")
	}
	return buf.Bytes()
}

func writeKMB2Columns(t *testing.T, path string, n int, srcs, dsts []NodeID,
	weights []float64, blockEdges int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kw, err := NewKMB2Writer(f, n, weights != nil, blockEdges)
	if err != nil {
		t.Fatal(err)
	}
	if err := kw.Append(srcs, dsts, weights); err != nil {
		t.Fatal(err)
	}
	if err := kw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

type sourceCloser interface {
	BlockSource
	Close() error
}

func TestStreamBuildMatchesInMemory(t *testing.T) {
	const n, m = 97, 600
	cases := []edgeCase{
		{},
		{dups: true, selfLoops: true},
		{weighted: true, dups: true},
		{weighted: true, selfLoops: true, emptyTail: true},
	}
	for _, ec := range cases {
		ref := NewBuilder(n)
		fillBuilder(ref, ec, n, m, 42)
		srcs := slices.Clone(ref.srcs)
		dsts := slices.Clone(ref.dsts)
		weights := slices.Clone(ref.weights)
		want := ref.BuildSerial()

		dir := t.TempDir()
		textPlain := filepath.Join(dir, "plain.txt")
		textDecorated := filepath.Join(dir, "decorated.txt")
		kmb2Small := filepath.Join(dir, "small.kmb2")
		kmb2Default := filepath.Join(dir, "default.kmb2")
		kmb2CSR := filepath.Join(dir, "csr.kmb2")
		tmp := NewBuilder(n)
		tmp.srcs, tmp.dsts, tmp.weights = srcs, dsts, weights
		if err := os.WriteFile(textPlain, edgeListText(tmp, n, false), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(textDecorated, edgeListText(tmp, n, true), 0o644); err != nil {
			t.Fatal(err)
		}
		// blockEdges 7 forces many blocks with a partial tail; the default
		// puts everything in one block.
		writeKMB2Columns(t, kmb2Small, n, srcs, dsts, weights, 7)
		writeKMB2Columns(t, kmb2Default, n, srcs, dsts, weights, 0)
		// SaveKMB2 of the built graph stores the edges in CSR order, not
		// insertion order, in blocks of 5. Rebuilding from that order is
		// still bit-identical to want because the final adjacency sort is
		// a total order.
		if err := SaveKMB2(kmb2CSR, want, 5); err != nil {
			t.Fatal(err)
		}

		sources := []struct {
			name string
			open func() (sourceCloser, error)
		}{
			{"text/plain/mmap", func() (sourceCloser, error) {
				return OpenTextConfig(textPlain, TextConfig{ShardBytes: 64})
			}},
			{"text/plain/readat", func() (sourceCloser, error) {
				return OpenTextConfig(textPlain, TextConfig{ShardBytes: 64, NoMmap: true})
			}},
			{"text/decorated/mmap", func() (sourceCloser, error) {
				return OpenTextConfig(textDecorated, TextConfig{ShardBytes: 17})
			}},
			{"text/decorated/oneshard", func() (sourceCloser, error) {
				return OpenText(textDecorated)
			}},
			{"kmb2/small/mmap", func() (sourceCloser, error) {
				return OpenKMB2(kmb2Small)
			}},
			{"kmb2/small/readat", func() (sourceCloser, error) {
				return OpenKMB2ReadAt(kmb2Small)
			}},
			{"kmb2/default/mmap", func() (sourceCloser, error) {
				return OpenKMB2(kmb2Default)
			}},
			{"kmb2/default/readat", func() (sourceCloser, error) {
				return OpenKMB2ReadAt(kmb2Default)
			}},
			{"kmb2/csr/mmap", func() (sourceCloser, error) {
				return OpenKMB2(kmb2CSR)
			}},
			{"kmb2/csr/readat", func() (sourceCloser, error) {
				return OpenKMB2ReadAt(kmb2CSR)
			}},
		}
		for _, srcSpec := range sources {
			src, err := srcSpec.open()
			if err != nil {
				t.Fatalf("%s/%s: open: %v", ec.name(), srcSpec.name, err)
			}
			for _, w := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ec.name(), srcSpec.name, w), func(t *testing.T) {
					got, err := NewStreamBuilder(src).SetWorkers(w).Build()
					if err != nil {
						t.Fatal(err)
					}
					requireGraphsIdentical(t, want, got)
				})
			}
			if err := src.Close(); err != nil {
				t.Fatalf("%s: close: %v", srcSpec.name, err)
			}
		}
	}
}

func TestStreamBuildEmpty(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenText(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	g, err := NewStreamBuilder(ts).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty stream build = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}

	// Declared nodes, zero edges: the node count must survive streaming.
	edgeless := filepath.Join(dir, "edgeless.txt")
	if err := os.WriteFile(edgeless, []byte("nodes 5\n# nothing else\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts2, err := OpenText(edgeless)
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	g, err = NewStreamBuilder(ts2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatalf("edgeless stream build = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}

	// Single-edge weighted KMB2 file: weightedness survives the round trip.
	wantEmpty := NewBuilder(3)
	wantEmpty.AddWeightedEdge(0, 1, 2)
	ge := wantEmpty.Build()
	kmb2 := filepath.Join(dir, "one.kmb2")
	if err := SaveKMB2(kmb2, ge, 0); err != nil {
		t.Fatal(err)
	}
	ks, err := OpenKMB2(kmb2)
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	got, err := NewStreamBuilder(ks).SetWorkers(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, ge, got)
}

func TestStreamTextMatchesReadEdgeList(t *testing.T) {
	const n, m = 53, 400
	b := NewBuilder(n)
	fillBuilder(b, edgeCase{weighted: true, dups: true}, n, m, 9)
	data := edgeListText(b, n, true)

	want, err := ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTextConfig(path, TextConfig{ShardBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	got, err := NewStreamBuilder(ts).SetWorkers(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, want, got)
}

// TestStreamTextBuildAllocBound pins what a cold text build allocates: the
// CSR, the count matrix, and block columns of one slot per input line —
// sized once per shard, so the parse never regrows them. Regrowing by
// append allocated several times the columns (a 256² grid's load
// allocated 27.8 MB for a 3.6 MB CSR).
func TestStreamTextBuildAllocBound(t *testing.T) {
	const n, m, workers = 2048, 40000, 2
	b := NewBuilder(n)
	fillBuilder(b, edgeCase{weighted: true}, n, m, 5)
	data := edgeListText(b, n, false)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Two shards, one per worker.
	ts, err := OpenTextConfig(path, TextConfig{ShardBytes: len(data)/2 + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.NumBlocks() != workers {
		t.Fatalf("got %d shards, want %d", ts.NumBlocks(), workers)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := NewStreamBuilder(ts).SetWorkers(workers).Build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	lines := int64(bytes.Count(data, []byte{'\n'}) + 1)
	csr := int64(n+1)*8 + g.NumEdges()*12
	limit := csr + lines*16 + workers*n*8 + 64<<10
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > limit {
		t.Errorf("text stream build allocated %d bytes, above %d (CSR %d + %d lines × 16 + counts + 64 KiB)",
			got, limit, csr, lines)
	}
}

func TestTextSourceErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	buildFrom := func(ts *TextSource) error {
		defer ts.Close()
		_, err := NewStreamBuilder(ts).SetWorkers(2).Build()
		return err
	}

	if _, err := OpenText(write("nodirective.txt", "0 1\n1 2\n")); err == nil ||
		!strings.Contains(err.Error(), "nodes directive") {
		t.Fatalf("missing directive: err = %v", err)
	}
	// …but an explicit count stands in for the directive.
	ts, err := OpenTextConfig(filepath.Join(dir, "nodirective.txt"), TextConfig{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := buildFrom(ts); err != nil {
		t.Fatalf("explicit NumNodes: %v", err)
	}

	if _, err := OpenTextConfig(write("conflict.txt", "nodes 4\n0 1\n"),
		TextConfig{NumNodes: 9}); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("conflicting config: err = %v", err)
	}

	ts, err = OpenText(write("range.txt", "nodes 3\n0 1\n1 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := buildFrom(ts); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range endpoint: err = %v", err)
	}

	ts, err = OpenText(write("mixed.txt", "nodes 3\n0 1 2.5\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := buildFrom(ts); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Fatalf("mixed weightedness: err = %v", err)
	}

	ts, err = OpenText(write("badfield.txt", "nodes 3\n0 x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := buildFrom(ts); err == nil || !strings.Contains(err.Error(), "bad dst") {
		t.Fatalf("bad dst: err = %v", err)
	}

	ts, err = OpenText(write("extra.txt", "nodes 3\n0 1 2.5 9\n"))
	if err == nil {
		err = buildFrom(ts)
	}
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("4-field line: err = %v", err)
	}
}

func TestKMB2Errors(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder(20)
	fillBuilder(b, edgeCase{weighted: true}, 20, 100, 5)
	g := b.Build()
	path := filepath.Join(dir, "g.kmb2")
	if err := SaveKMB2(path, g, 16); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(data []byte) error {
		p := filepath.Join(dir, "mut.kmb2")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenKMB2(p)
		if err != nil {
			return err
		}
		defer s.Close()
		_, err = NewStreamBuilder(s).Build()
		return err
	}

	// Bad magic.
	mut := slices.Clone(good)
	mut[0] = 'X'
	if err := reopen(mut); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}

	// Header bit flip lands on the header CRC.
	mut = slices.Clone(good)
	mut[16] ^= 0x40
	if err := reopen(mut); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("header corruption: err = %v", err)
	}

	// Payload bit flip lands on that block's payload CRC.
	mut = slices.Clone(good)
	mut[kmb2Page+kmb2BlockHdrLen+5] ^= 0x01
	if err := reopen(mut); err == nil || !strings.Contains(err.Error(), "payload checksum") {
		t.Fatalf("payload corruption: err = %v", err)
	}

	// Truncation is caught by the exact size check before any block reads.
	if err := reopen(good[:len(good)-kmb2Page]); err == nil ||
		!strings.Contains(err.Error(), "header implies") {
		t.Fatalf("truncation: err = %v", err)
	}

	// A header claiming enormous blocks must be rejected before any
	// allocation is sized from it.
	mut = slices.Clone(good)
	hdr, _ := decodeKMB2Header(mut)
	hdr.blockEdges = maxBlockEdges + 1
	hdr.encode(mut)
	if err := reopen(mut); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized blockEdges: err = %v", err)
	}
}

// TestKMB2RoundTrip pins SaveKMB2 → StreamBuilder as exact inverses at 4
// and 1 workers, including mmap-vs-ReadAt identity.
func TestKMB2RoundTrip(t *testing.T) {
	const n, m = 97, 600
	for _, ec := range []edgeCase{{}, {weighted: true, dups: true}} {
		b := NewBuilder(n)
		fillBuilder(b, ec, n, m, 11)
		want := b.Build()
		path := filepath.Join(t.TempDir(), "g.kmb2")
		if err := SaveKMB2(path, want, 100); err != nil {
			t.Fatal(err)
		}
		s1, err := OpenKMB2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s1.Close()
		s2, err := OpenKMB2ReadAt(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Mapped() {
			t.Fatal("OpenKMB2ReadAt produced a mapped source")
		}
		g1, err := NewStreamBuilder(s1).SetWorkers(4).Build()
		if err != nil {
			t.Fatal(err)
		}
		g2, err := NewStreamBuilder(s2).SetWorkers(1).Build()
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsIdentical(t, want, g1)
		requireGraphsIdentical(t, g1, g2)
	}
}

// TestStreamRescan pins the BlockSource contract the two-scan build
// depends on: a second scan yields the identical edge sequence.
func TestStreamRescan(t *testing.T) {
	b := NewBuilder(10)
	fillBuilder(b, edgeCase{weighted: true}, 10, 60, 3)
	g := b.Build()
	path := filepath.Join(t.TempDir(), "g.kmb2")
	if err := SaveKMB2(path, g, 8); err != nil {
		t.Fatal(err)
	}
	s, err := OpenKMB2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Two consecutive builds over the same source: both must succeed and
	// agree (the source is scanned four times in total).
	g1, err := NewStreamBuilder(s).SetWorkers(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewStreamBuilder(s).SetWorkers(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, g, g1)
	requireGraphsIdentical(t, g1, g2)
}
