package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary edge-block format "KMB2", the only binary graph format (the
// other on-disk format is the text edge list, io.go). A KMB2 file is a
// page-aligned sequence of fixed-stride edge blocks, each independently
// parseable, checkable, and readable in any order — the unit the
// streaming build and the parallel converter schedule over.
//
// Layout (all integers little-endian):
//
//	file header, one page (4096 B):
//	  [0:4)   magic "KMB2"
//	  [4:8)   flags (bit 0: weighted)
//	  [8:16)  numNodes
//	  [16:24) numEdges
//	  [24:28) blockEdges (edge capacity per block)
//	  [28:32) numBlocks
//	  [32:36) CRC-32C of bytes [0:32)
//	  [36:4096) zero padding
//	block i, at 4096 + i*blockStride (stride = align4096(32 + blockEdges*edgeBytes)):
//	  [0:4)   count (edges in this block: blockEdges, except the last)
//	  [4:8)   srcMin   (advisory: minimum src in the block)
//	  [8:12)  srcMax   (advisory: maximum src; srcMax < numNodes is checked)
//	  [12:16) CRC-32C of the payload bytes
//	  [16:32) zero padding
//	  payload: srcs [count]uint32, dsts [count]uint32,
//	           weights [count]float64-bits (weighted files only),
//	           zero padding to the stride
//
// Every block is covered by its own header and checksum, so a reader can
// verify any block without touching the rest of the file, and corruption
// is localized to one block's error instead of a silently wrong graph.

const (
	kmb2Page        = 4096
	kmb2FileHdrLen  = 36
	kmb2BlockHdrLen = 32

	// DefaultBlockEdges is the default block capacity. Small enough that
	// workers × block working set stays a rounding error next to any
	// real graph's CSR (the streaming build's ≤1.25×-CSR peak-allocation
	// gate binds on the bench analogues), large enough to amortize
	// per-block headers and read calls.
	DefaultBlockEdges = 4096

	// maxBlockEdges caps the per-block allocation a header can demand; a
	// larger claim is rejected before any buffer is sized from it.
	maxBlockEdges = 1 << 24
)

var kmb2Magic = [4]byte{'K', 'M', 'B', '2'}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

type kmb2Header struct {
	weighted   bool
	numNodes   int
	numEdges   int64
	blockEdges int
	numBlocks  int
}

func (h kmb2Header) edgeBytes() int64 {
	if h.weighted {
		return 16
	}
	return 8
}

// blockStride returns the on-disk bytes per block: header + full payload,
// rounded up to the page size.
func (h kmb2Header) blockStride() int64 {
	raw := kmb2BlockHdrLen + int64(h.blockEdges)*h.edgeBytes()
	return (raw + kmb2Page - 1) &^ (kmb2Page - 1)
}

// blockCount returns block i's edge count: full except the last.
func (h kmb2Header) blockCount(i int) int {
	if i == h.numBlocks-1 {
		return int(h.numEdges - int64(h.numBlocks-1)*int64(h.blockEdges))
	}
	return h.blockEdges
}

func (h kmb2Header) encode(dst []byte) {
	copy(dst[0:4], kmb2Magic[:])
	var flags uint32
	if h.weighted {
		flags |= 1
	}
	binary.LittleEndian.PutUint32(dst[4:8], flags)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(h.numNodes))
	binary.LittleEndian.PutUint64(dst[16:24], uint64(h.numEdges))
	binary.LittleEndian.PutUint32(dst[24:28], uint32(h.blockEdges))
	binary.LittleEndian.PutUint32(dst[28:32], uint32(h.numBlocks))
	binary.LittleEndian.PutUint32(dst[32:36], crc32.Checksum(dst[0:32], crcTable))
}

// decodeKMB2Header parses and validates the fixed header fields. The
// caller validates the file size against the implied layout before any
// block-sized allocation happens.
func decodeKMB2Header(b []byte) (kmb2Header, error) {
	var h kmb2Header
	if len(b) < kmb2FileHdrLen {
		return h, fmt.Errorf("graph: kmb2: short header (%d bytes)", len(b))
	}
	if [4]byte(b[0:4]) != kmb2Magic {
		return h, fmt.Errorf("graph: kmb2: bad magic %q", b[0:4])
	}
	if got, want := crc32.Checksum(b[0:32], crcTable), binary.LittleEndian.Uint32(b[32:36]); got != want {
		return h, fmt.Errorf("graph: kmb2: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	flags := binary.LittleEndian.Uint32(b[4:8])
	if flags&^1 != 0 {
		return h, fmt.Errorf("graph: kmb2: unknown flags %#x", flags)
	}
	h.weighted = flags&1 != 0
	nodes := binary.LittleEndian.Uint64(b[8:16])
	edges := binary.LittleEndian.Uint64(b[16:24])
	if nodes > math.MaxUint32 {
		return h, fmt.Errorf("graph: kmb2: node count %d exceeds 32-bit IDs", nodes)
	}
	if edges > math.MaxInt64/16 {
		return h, fmt.Errorf("graph: kmb2: implausible edge count %d", edges)
	}
	h.numNodes = int(nodes)
	h.numEdges = int64(edges)
	h.blockEdges = int(binary.LittleEndian.Uint32(b[24:28]))
	h.numBlocks = int(binary.LittleEndian.Uint32(b[28:32]))
	if h.blockEdges < 1 || h.blockEdges > maxBlockEdges {
		return h, fmt.Errorf("graph: kmb2: block capacity %d out of range [1, %d]", h.blockEdges, maxBlockEdges)
	}
	wantBlocks := int((h.numEdges + int64(h.blockEdges) - 1) / int64(h.blockEdges))
	if h.numBlocks != wantBlocks {
		return h, fmt.Errorf("graph: kmb2: header claims %d blocks, %d edges at %d/block imply %d",
			h.numBlocks, h.numEdges, h.blockEdges, wantBlocks)
	}
	return h, nil
}

// KMB2Writer streams edges into a KMB2 file without materializing them:
// it buffers one block, flushing each full block as it goes, and patches
// the file header with the final counts on Close (the writer must
// therefore be seekable). Edges appear in the file in append order.
type KMB2Writer struct {
	w       io.WriteSeeker
	hdr     kmb2Header
	blk     EdgeBlock
	scratch []byte
	off     int64
	closed  bool
}

// NewKMB2Writer starts a KMB2 file for a graph with numNodes nodes.
// blockEdges <= 0 selects DefaultBlockEdges.
func NewKMB2Writer(w io.WriteSeeker, numNodes int, weighted bool, blockEdges int) (*KMB2Writer, error) {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	if blockEdges > maxBlockEdges {
		return nil, fmt.Errorf("graph: kmb2: block capacity %d exceeds max %d", blockEdges, maxBlockEdges)
	}
	if numNodes < 0 || int64(numNodes) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: kmb2: node count %d out of range", numNodes)
	}
	kw := &KMB2Writer{
		w:   w,
		hdr: kmb2Header{weighted: weighted, numNodes: numNodes, blockEdges: blockEdges},
	}
	kw.scratch = make([]byte, kw.hdr.blockStride())
	// Placeholder header page; Close rewrites it with the real counts.
	if _, err := w.Write(kw.scratch[:kmb2Page]); err != nil {
		return nil, err
	}
	kw.off = kmb2Page
	return kw, nil
}

// Append adds the edges (srcs[i] -> dsts[i], weight weights[i]) to the
// file. weights must be nil exactly when the writer is unweighted.
func (kw *KMB2Writer) Append(srcs, dsts []NodeID, weights []float64) error {
	if kw.closed {
		return fmt.Errorf("graph: kmb2: append after Close")
	}
	if len(srcs) != len(dsts) || (weights != nil && len(weights) != len(srcs)) {
		return fmt.Errorf("graph: kmb2: column length mismatch")
	}
	if kw.hdr.weighted != (weights != nil) {
		return fmt.Errorf("graph: kmb2: weight column mismatch (writer weighted=%v)", kw.hdr.weighted)
	}
	for i := range srcs {
		w := 0.0
		if weights != nil {
			w = weights[i]
		}
		if err := kw.AppendEdge(srcs[i], dsts[i], w); err != nil {
			return err
		}
	}
	return nil
}

// AppendEdge adds a single edge; the weight is ignored for unweighted
// writers.
func (kw *KMB2Writer) AppendEdge(src, dst NodeID, w float64) error {
	if kw.closed {
		return fmt.Errorf("graph: kmb2: append after Close")
	}
	if int(src) >= kw.hdr.numNodes || int(dst) >= kw.hdr.numNodes {
		return fmt.Errorf("graph: kmb2: edge %d->%d out of range for %d nodes",
			src, dst, kw.hdr.numNodes)
	}
	kw.blk.Srcs = append(kw.blk.Srcs, src)
	kw.blk.Dsts = append(kw.blk.Dsts, dst)
	if kw.hdr.weighted {
		kw.blk.Weights = append(kw.blk.Weights, w)
	}
	if kw.blk.Len() == kw.hdr.blockEdges {
		return kw.flushBlock()
	}
	return nil
}

// AppendBlock adds one source block's edges (the streaming converter's
// path; blocks are repacked to the writer's capacity).
func (kw *KMB2Writer) AppendBlock(blk *EdgeBlock) error {
	return kw.Append(blk.Srcs, blk.Dsts, blk.Weights)
}

func (kw *KMB2Writer) flushBlock() error {
	count := kw.blk.Len()
	if count == 0 {
		return nil
	}
	b := kw.scratch[:kw.hdr.blockStride()]
	clear(b)
	srcMin, srcMax := kw.blk.Srcs[0], kw.blk.Srcs[0]
	at := kmb2BlockHdrLen
	for _, s := range kw.blk.Srcs {
		if s < srcMin {
			srcMin = s
		}
		if s > srcMax {
			srcMax = s
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(s))
		at += 4
	}
	for _, d := range kw.blk.Dsts {
		binary.LittleEndian.PutUint32(b[at:], uint32(d))
		at += 4
	}
	if kw.hdr.weighted {
		for _, w := range kw.blk.Weights {
			binary.LittleEndian.PutUint64(b[at:], math.Float64bits(w))
			at += 8
		}
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(count))
	binary.LittleEndian.PutUint32(b[4:8], uint32(srcMin))
	binary.LittleEndian.PutUint32(b[8:12], uint32(srcMax))
	binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(b[kmb2BlockHdrLen:at], crcTable))
	if _, err := kw.w.Write(b); err != nil {
		return err
	}
	kw.off += int64(len(b))
	kw.hdr.numEdges += int64(count)
	kw.hdr.numBlocks++
	kw.blk.Srcs = kw.blk.Srcs[:0]
	kw.blk.Dsts = kw.blk.Dsts[:0]
	if kw.hdr.weighted {
		kw.blk.Weights = kw.blk.Weights[:0]
	}
	return nil
}

// Close flushes the final partial block and rewrites the header page with
// the real edge and block counts.
func (kw *KMB2Writer) Close() error {
	if kw.closed {
		return nil
	}
	kw.closed = true
	if err := kw.flushBlock(); err != nil {
		return err
	}
	hdr := kw.scratch[:kmb2Page]
	clear(hdr)
	kw.hdr.encode(hdr)
	if _, err := kw.w.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := kw.w.Write(hdr); err != nil {
		return err
	}
	_, err := kw.w.Seek(kw.off, io.SeekStart)
	return err
}

// SaveKMB2 writes g to the named file in KMB2 format (CSR edge order).
// blockEdges <= 0 selects DefaultBlockEdges.
func SaveKMB2(path string, g *Graph, blockEdges int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	kw, err := NewKMB2Writer(f, g.NumNodes(), g.Weighted(), blockEdges)
	if err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		lo, hi := g.EdgeRange(NodeID(v))
		for e := lo; e < hi; e++ {
			if err := kw.AppendEdge(NodeID(v), g.Dst(e), g.Weight(e)); err != nil {
				return err
			}
		}
	}
	if err := kw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// KMB2Source reads a KMB2 file as a BlockSource: random-access,
// checksum-verified, safe for concurrent ReadBlock calls. Open one with
// OpenKMB2 (mmap on Linux, buffered ReadAt elsewhere or on mmap failure)
// or NewKMB2Source over any io.ReaderAt.
type KMB2Source struct {
	r      io.ReaderAt
	data   []byte // mmap'd file contents; nil on the ReadAt path
	f      *os.File
	mm     *mmapHandle
	hdr    kmb2Header
	stride int64
}

// NewKMB2Source wraps an io.ReaderAt holding size bytes of KMB2 data.
// The header is validated against the exact file size before any
// block-sized buffer is allocated, so a corrupt header cannot drive an
// over-allocation.
func NewKMB2Source(r io.ReaderAt, size int64) (*KMB2Source, error) {
	var hb [kmb2FileHdrLen]byte
	if _, err := r.ReadAt(hb[:], 0); err != nil {
		return nil, fmt.Errorf("graph: kmb2: %w", err)
	}
	hdr, err := decodeKMB2Header(hb[:])
	if err != nil {
		return nil, err
	}
	s := &KMB2Source{r: r, hdr: hdr, stride: hdr.blockStride()}
	if want := kmb2Page + int64(hdr.numBlocks)*s.stride; size != want {
		return nil, fmt.Errorf("graph: kmb2: file is %d bytes, header implies %d", size, want)
	}
	return s, nil
}

// OpenKMB2 opens a KMB2 file for streaming reads, preferring a read-only
// mmap of the whole file (blocks are decoded straight out of the page
// cache, no read syscalls or scratch copies on the scan path) and
// falling back to buffered ReadAt when mapping is unavailable.
func OpenKMB2(path string) (*KMB2Source, error) {
	return openKMB2(path, false)
}

// OpenKMB2ReadAt opens a KMB2 file with the portable ReadAt path even
// where mmap is available — the fallback tests and benchmarks pin both
// paths to identical results.
func OpenKMB2ReadAt(path string) (*KMB2Source, error) {
	return openKMB2(path, true)
}

func openKMB2(path string, noMmap bool) (*KMB2Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := NewKMB2Source(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	if !noMmap && st.Size() > 0 {
		if mm, err := mmapFile(f, st.Size()); err == nil {
			s.mm = mm
			s.data = mm.data
		}
	}
	return s, nil
}

// Close unmaps and closes the underlying file, if this source owns one.
func (s *KMB2Source) Close() error {
	if s.mm != nil {
		s.mm.close()
		s.mm, s.data = nil, nil
	}
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}

// Mapped reports whether reads go through an mmap'd view.
func (s *KMB2Source) Mapped() bool { return s.data != nil }

// NumNodes implements BlockSource.
func (s *KMB2Source) NumNodes() int { return s.hdr.numNodes }

// Weighted implements BlockSource.
func (s *KMB2Source) Weighted() bool { return s.hdr.weighted }

// NumBlocks implements BlockSource.
func (s *KMB2Source) NumBlocks() int { return s.hdr.numBlocks }

// NumEdges returns the total edge count from the header.
func (s *KMB2Source) NumEdges() int64 { return s.hdr.numEdges }

// ReadBlock implements BlockSource: verify block i's header and payload
// checksum, then decode the columns into blk.
func (s *KMB2Source) ReadBlock(i int, blk *EdgeBlock) error {
	if i < 0 || i >= s.hdr.numBlocks {
		return fmt.Errorf("graph: kmb2: block %d out of range [0, %d)", i, s.hdr.numBlocks)
	}
	count := s.hdr.blockCount(i)
	need := kmb2BlockHdrLen + int64(count)*s.hdr.edgeBytes()
	off := kmb2Page + int64(i)*s.stride
	var b []byte
	if s.data != nil {
		b = s.data[off : off+need]
	} else {
		b = blk.RawBuf(int(need))
		if _, err := s.r.ReadAt(b, off); err != nil {
			return fmt.Errorf("graph: kmb2: block %d: %w", i, err)
		}
	}
	if got := int(binary.LittleEndian.Uint32(b[0:4])); got != count {
		return fmt.Errorf("graph: kmb2: block %d header claims %d edges, layout implies %d", i, got, count)
	}
	srcMax := binary.LittleEndian.Uint32(b[8:12])
	if count > 0 && int64(srcMax) >= int64(s.hdr.numNodes) {
		return fmt.Errorf("graph: kmb2: block %d srcMax %d out of range for %d nodes", i, srcMax, s.hdr.numNodes)
	}
	payload := b[kmb2BlockHdrLen:need]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[12:16]); got != want {
		return fmt.Errorf("graph: kmb2: block %d payload checksum mismatch (got %08x, want %08x)", i, got, want)
	}
	blk.Reset(count, s.hdr.weighted)
	decodeNodeIDs(blk.Srcs, payload)
	decodeNodeIDs(blk.Dsts, payload[count*4:])
	if s.hdr.weighted {
		if err := decodeFloat64s(blk.Weights, payload[count*8:]); err != nil {
			return fmt.Errorf("graph: kmb2: block %d: %w", i, err)
		}
	}
	return nil
}
