package graph

import (
	"fmt"

	"kimbap/internal/par"
)

// This file is the ingestion pipeline's one CSR builder: a two-pass
// counting sort over a BlockSource that holds at most workers × blockSize
// edges in memory. Edge data arrives as blocks from a KMB2 block file
// (blockfile.go), a sharded text edge list (textsource.go) or in-memory
// edge columns (columnSource in build.go, behind Builder.Build and
// BuildSymmetric), and is scanned twice: pass 1 accumulates per-worker
// degree counts, pass 2 scatters straight into the final CSR arrays
// through conflict-free cursor rows. Peak allocation is O(CSR) plus the
// count matrix and the fixed block working set, never O(edges) + O(CSR)
// like a materialize-then-build path.
//
// Determinism and bit-identity: blocks are assigned to workers by static
// par.Range over the block index — the same assignment in both passes —
// so the scatter reproduces a fixed insertion order (block-major), and
// the final per-node (dst, weight) sort is a total order up to fully
// equal entries. The result is bit-identical to BuildSerial fed the same
// edge sequence at every worker count and block size; the equivalence
// tests in stream_test.go and equivalence_test.go enforce exactly that.

// EdgeBlock is a fixed-capacity columnar edge buffer: the unit of IO and
// parsing in the streaming path. Sources fill the three columns (Weights
// stays nil for unweighted graphs); Raw is scratch for file-backed
// sources to read encoded bytes into before decoding.
type EdgeBlock struct {
	Srcs, Dsts []NodeID
	Weights    []float64
	Raw        []byte
}

// Len returns the number of edges currently in the block.
func (b *EdgeBlock) Len() int { return len(b.Srcs) }

// Reset sizes the block for count edges, growing capacity as needed and
// attaching or dropping the weight column. Contents are unspecified after
// Reset; sources overwrite every slot they report.
func (b *EdgeBlock) Reset(count int, weighted bool) {
	b.Srcs = growCap(b.Srcs, count)
	b.Dsts = growCap(b.Dsts, count)
	if weighted {
		b.Weights = growCap(b.Weights, count)
	} else {
		b.Weights = nil
	}
}

// RawBuf returns the scratch byte buffer resized to n bytes, reusing
// capacity across blocks.
func (b *EdgeBlock) RawBuf(n int) []byte {
	b.Raw = growCap(b.Raw, n)
	return b.Raw
}

func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// BlockSource yields a graph's edges as independent blocks. Sources must
// support repeated scans (the two-scan build reads every block twice) and
// concurrent ReadBlock calls on distinct block indices from different
// goroutines. The edge sequence — blocks in index order, edges in
// in-block order — must be identical across scans; StreamBuilder detects
// a source that changed between scans and fails rather than corrupting
// the CSR.
type BlockSource interface {
	// NumNodes returns the node count; every edge endpoint must be < it.
	NumNodes() int
	// Weighted reports whether blocks carry a weight column.
	Weighted() bool
	// NumBlocks returns the static block count the scans are split over.
	NumBlocks() int
	// ReadBlock fills blk with block i's edges (Reset to the right size,
	// then overwritten). blk is caller-owned scratch; implementations
	// must not retain it or its slices past the call.
	ReadBlock(i int, blk *EdgeBlock) error
}

// StreamBuilder builds a CSR graph from a BlockSource with the two-scan
// counting sort. Construct with NewStreamBuilder, optionally SetWorkers,
// then Build once.
type StreamBuilder struct {
	src     BlockSource
	workers int
}

// NewStreamBuilder returns a StreamBuilder over src.
func NewStreamBuilder(src BlockSource) *StreamBuilder {
	return &StreamBuilder{src: src}
}

// SetWorkers fixes the worker count (0 = all cores). Output is
// bit-identical at every setting.
func (sb *StreamBuilder) SetWorkers(w int) *StreamBuilder {
	sb.workers = w
	return sb
}

// scan runs one pass over the source: each worker takes its static block
// range in index order, reading through its own block blks[w] (one per
// worker, owned by the build, so the second scan reuses the capacity the
// first one grew). fn sees every block exactly once, on the worker that
// owns it. Errors surface in worker order (par.DoErr), so a multi-worker
// failure is deterministic.
func (sb *StreamBuilder) scan(workers int, blks []EdgeBlock, fn func(w int, blk *EdgeBlock) error) error {
	nb := sb.src.NumBlocks()
	return par.DoErr(workers, func(w int) error {
		lo, hi := par.Range(w, workers, nb)
		if lo == hi {
			return nil
		}
		blk := &blks[w]
		for i := lo; i < hi; i++ {
			if err := sb.src.ReadBlock(i, blk); err != nil {
				return fmt.Errorf("graph: stream block %d: %w", i, err)
			}
			if err := fn(w, blk); err != nil {
				return err
			}
		}
		return nil
	})
}

// Build runs the two-scan counting-sort CSR build. The result is
// bit-identical to BuildSerial over the same edge sequence; peak
// allocation is the CSR arrays, the (workers × numNodes) cursor matrix,
// and one block buffer per worker, all allocated per build.
//
//kimbap:deterministic
func (sb *StreamBuilder) Build() (*Graph, error) {
	n := sb.src.NumNodes()
	if n < 0 {
		return nil, fmt.Errorf("graph: stream build: negative node count %d", n)
	}
	nb := sb.src.NumBlocks()
	workers := par.Resolve(sb.workers)
	if workers > nb {
		workers = nb
	}
	if workers < 1 {
		workers = 1
	}
	weighted := sb.src.Weighted()
	g := &Graph{offsets: make([]int64, n+1)}
	if nb == 0 {
		// Match BuildSerial's empty representation bit for bit: non-nil
		// zero-length columns, weight column present iff the source is
		// weighted.
		g.dsts = []NodeID{}
		if weighted {
			g.weights = []float64{}
		}
		return g, nil
	}

	// Pass 1: per-worker degree counts over static block ranges, with the
	// only full-edge validation pass (pass 2 trusts it and only re-checks
	// totals).
	blks := make([]EdgeBlock, workers)
	cnt := make([]int64, workers*n)
	pass1 := make([]int64, workers) // edges seen, for the cross-scan check
	count := func(w int, blk *EdgeBlock) error {
		c := cnt[w*n : (w+1)*n]
		for i, s := range blk.Srcs {
			if int(s) >= n || int(blk.Dsts[i]) >= n {
				return fmt.Errorf("graph: edge %d->%d out of range for %d nodes",
					s, blk.Dsts[i], n)
			}
			c[s]++
		}
		// Empty blocks carry no weight-column information: a text shard
		// holding only comments leaves a block's nil Weights slice nil
		// even for a weighted source ([:0] of nil is nil).
		if blk.Len() > 0 && weighted != (blk.Weights != nil) {
			return fmt.Errorf("graph: block weight column mismatch (source says weighted=%v)", weighted)
		}
		pass1[w] += int64(blk.Len())
		return nil
	}
	if err := sb.scan(workers, blks, count); err != nil {
		return nil, err
	}
	mergeCounts(workers, n, cnt, g.offsets)

	m := g.offsets[n]
	g.dsts = make([]NodeID, m)
	if weighted {
		g.weights = make([]float64, m)
	}

	// Pass 2: conflict-free scatter straight into the final arrays. Every
	// write lands in a slot reserved by this worker's cursor row, seeded
	// by mergeCounts with the counts of workers < w.
	pass2 := make([]int64, workers)
	scatter := func(w int, blk *EdgeBlock) error {
		c := cnt[w*n : (w+1)*n]
		seen := pass2[w] + int64(blk.Len())
		if seen > pass1[w] {
			return fmt.Errorf("graph: source changed between scans (worker %d saw %d edges, counted %d)",
				w, seen, pass1[w])
		}
		pass2[w] = seen
		// Re-check src bounds: a source mutated between scans must fail
		// with an error, not an index panic. (Equal-count content drift
		// still yields a wrong graph — nothing can rebuild trust in a file
		// changing underfoot — but never a crash or out-of-bounds write.)
		for i, s := range blk.Srcs {
			if int(s) >= n {
				return fmt.Errorf("graph: source changed between scans (edge %d->%d out of range)",
					s, blk.Dsts[i])
			}
		}
		if blk.Weights != nil {
			for i, s := range blk.Srcs {
				at := c[s]
				if at >= m {
					return fmt.Errorf("graph: source changed between scans (cursor overflow at src %d)", s)
				}
				c[s] = at + 1
				g.dsts[at] = blk.Dsts[i]
				g.weights[at] = blk.Weights[i]
			}
		} else {
			for i, s := range blk.Srcs {
				at := c[s]
				if at >= m {
					return fmt.Errorf("graph: source changed between scans (cursor overflow at src %d)", s)
				}
				c[s] = at + 1
				g.dsts[at] = blk.Dsts[i]
			}
		}
		return nil
	}
	if err := sb.scan(workers, blks, scatter); err != nil {
		return nil, err
	}
	for w := range pass2 {
		if pass2[w] != pass1[w] {
			return nil, fmt.Errorf("graph: source changed between scans (worker %d saw %d edges, counted %d)",
				w, pass2[w], pass1[w])
		}
	}
	sortAdjacency(g, workers)
	return g, nil
}

// mergeCounts stitches a per-worker count matrix into CSR offsets and
// scatter cursors: column sums into offsets[1..n], a parallel prefix sum,
// then conversion of each count cell into that worker's write cursor for
// the node. Cell (w, v) ends up at offsets[v] plus the counts of workers
// < w for v, which is what makes StreamBuilder's scatter conflict-free
// and insertion-ordered.
func mergeCounts(workers, n int, cnt, offsets []int64) {
	par.Static(workers, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var s int64
			for w := 0; w < workers; w++ {
				s += cnt[w*n+v]
			}
			offsets[v+1] = s
		}
	})
	par.PrefixSum(workers, offsets)
	par.Static(workers, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			pos := offsets[v]
			for w := 0; w < workers; w++ {
				c := cnt[w*n+v]
				cnt[w*n+v] = pos
				pos += c
			}
		}
	})
}
