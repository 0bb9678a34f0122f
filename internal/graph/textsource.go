package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unsafe"
)

// TextSource is the streaming counterpart of ReadEdgeList: a text edge
// list exposed as a BlockSource by splitting the file at newline
// boundaries into ~4 MB shards. Each shard is parsed independently (and
// re-parsed on the second scan) with byte-level field splitting — no
// strings.Fields / strings.TrimSpace / per-line allocations on the hot
// path. The file is mmapped when possible; otherwise shards are read
// with ReadAt into the block's scratch.
//
// Streaming needs the node count and weightedness before the first scan,
// so TextSource is stricter than ReadEdgeList in two documented ways:
//
//   - a "nodes N" directive must precede the first edge line (or the
//     count must be passed in TextConfig.NumNodes) — max-ID inference
//     would itself be a full scan;
//   - edge lines must be uniformly weighted or uniformly unweighted,
//     fixed by the first edge line.
//
// Inputs produced by WriteEdgeList satisfy both. For conforming inputs
// the resulting graph is bit-identical to ReadEdgeList's.
type TextSource struct {
	f        *os.File
	mm       *mmapHandle
	size     int64
	numNodes int
	weighted bool
	bounds   []int64 // len NumBlocks()+1; shard i is bytes [bounds[i], bounds[i+1])
}

// TextConfig tunes OpenTextConfig. The zero value means: node count from
// the file's directive, default shard size, mmap when available.
type TextConfig struct {
	// NumNodes, when > 0, supplies the node count for files without a
	// leading "nodes" directive. A directive that disagrees is an error.
	NumNodes int
	// ShardBytes is the target shard size (boundaries advance to the next
	// newline). <= 0 means DefaultShardBytes. Tests use tiny values to
	// force many shards on small inputs.
	ShardBytes int
	// NoMmap forces the buffered ReadAt path even where mmap works, for
	// the mmap-vs-fallback identity tests.
	NoMmap bool
}

// DefaultShardBytes is the target text shard size: big enough to
// amortize parse startup, small enough that workers × shard stays a
// rounding error next to the CSR.
const DefaultShardBytes = 4 << 20

// OpenText opens a text edge list for streaming with default config.
func OpenText(path string) (*TextSource, error) {
	return OpenTextConfig(path, TextConfig{})
}

// OpenTextConfig opens a text edge list for streaming. The prologue is
// probed for the nodes directive and weightedness (stopping at the first
// edge line), and shard boundaries are computed; no edge is parsed until
// the scans run.
func OpenTextConfig(path string, cfg TextConfig) (*TextSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	ts := &TextSource{f: f, size: st.Size(), numNodes: -1}
	if cfg.NumNodes > 0 {
		ts.numNodes = cfg.NumNodes
	}
	if !cfg.NoMmap {
		if mm, err := mmapFile(f, ts.size); err == nil {
			ts.mm = mm
		}
	}
	if err := ts.probe(); err != nil {
		ts.Close()
		return nil, err
	}
	if err := ts.computeBounds(cfg.ShardBytes); err != nil {
		ts.Close()
		return nil, err
	}
	return ts, nil
}

// Close releases the mapping and file handle.
func (ts *TextSource) Close() error {
	if ts.mm != nil {
		ts.mm.close()
		ts.mm = nil
	}
	if ts.f == nil {
		return nil
	}
	err := ts.f.Close()
	ts.f = nil
	return err
}

// Mapped reports whether the source reads through an mmap (false means
// the buffered ReadAt fallback).
func (ts *TextSource) Mapped() bool { return ts.mm != nil }

// NumNodes implements BlockSource.
func (ts *TextSource) NumNodes() int { return ts.numNodes }

// Weighted implements BlockSource.
func (ts *TextSource) Weighted() bool { return ts.weighted }

// NumBlocks implements BlockSource.
func (ts *TextSource) NumBlocks() int { return len(ts.bounds) - 1 }

// probe scans the prologue line by line for the nodes directive and the
// first edge line (which fixes weightedness), then stops.
func (ts *TextSource) probe() error {
	sc := bufio.NewScanner(io.NewSectionReader(ts.f, 0, ts.size))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := trimSpaceBytes(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		f0, rest := splitField(line)
		if string(f0) == "nodes" {
			f1, rest2 := splitField(rest)
			if len(f1) > 0 && len(rest2) == 0 {
				n, err := strconv.Atoi(string(f1))
				if err != nil || n < 0 || int64(n) > 1<<32-1 {
					return fmt.Errorf("graph: bad nodes directive %q", line)
				}
				if ts.numNodes >= 0 && ts.numNodes != n {
					return fmt.Errorf("graph: nodes directive %d disagrees with configured count %d",
						n, ts.numNodes)
				}
				ts.numNodes = n
				continue
			}
		}
		// First edge line: field count fixes weightedness for the file.
		nf := 1
		for len(rest) > 0 {
			_, rest = splitField(rest)
			nf++
		}
		if nf < 2 || nf > 3 {
			return fmt.Errorf("graph: malformed edge line %q", line)
		}
		ts.weighted = nf == 3
		if ts.numNodes < 0 {
			return fmt.Errorf("graph: streaming text needs a nodes directive before the first edge (or TextConfig.NumNodes)")
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// No edges at all: an empty graph, possibly with a declared size.
	if ts.numNodes < 0 {
		ts.numNodes = 0
	}
	return nil
}

// computeBounds splits [0, size) at ~shard-sized offsets advanced to the
// next newline, so every line belongs to exactly one shard.
func (ts *TextSource) computeBounds(shard int) error {
	if shard <= 0 {
		shard = DefaultShardBytes
	}
	ts.bounds = append(ts.bounds[:0], 0)
	if ts.size == 0 {
		return nil
	}
	for off := int64(shard); off < ts.size; off += int64(shard) {
		b, err := ts.nextLineStart(off)
		if err != nil {
			return err
		}
		if b >= ts.size {
			break
		}
		if b > ts.bounds[len(ts.bounds)-1] {
			ts.bounds = append(ts.bounds, b)
		}
	}
	ts.bounds = append(ts.bounds, ts.size)
	return nil
}

// nextLineStart returns the offset of the first byte after the first
// newline at or past off.
func (ts *TextSource) nextLineStart(off int64) (int64, error) {
	if ts.mm != nil {
		if i := bytes.IndexByte(ts.mm.data[off:], '\n'); i >= 0 {
			return off + int64(i) + 1, nil
		}
		return ts.size, nil
	}
	var buf [32 << 10]byte
	for off < ts.size {
		n, err := ts.f.ReadAt(buf[:min(int64(len(buf)), ts.size-off)], off)
		if n > 0 {
			if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
				return off + int64(i) + 1, nil
			}
			off += int64(n)
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if n == 0 {
			break
		}
	}
	return ts.size, nil
}

// ReadBlock implements BlockSource: it parses shard i's lines into blk.
// Safe for concurrent calls on distinct indices.
func (ts *TextSource) ReadBlock(i int, blk *EdgeBlock) error {
	lo, hi := ts.bounds[i], ts.bounds[i+1]
	var data []byte
	if ts.mm != nil {
		data = ts.mm.data[lo:hi]
	} else {
		data = blk.RawBuf(int(hi - lo))
		if _, err := ts.f.ReadAt(data, lo); err != nil {
			return err
		}
	}
	// A shard has at most one edge per line: size the columns once, so the
	// parse never regrows them (append doubling would allocate about twice
	// the shard's columns in garbage on every first use of a block).
	lines := bytes.Count(data, []byte{'\n'}) + 1
	blk.Srcs = growCap(blk.Srcs, lines)[:0]
	blk.Dsts = growCap(blk.Dsts, lines)[:0]
	if ts.weighted {
		blk.Weights = growCap(blk.Weights, lines)[:0]
	} else {
		blk.Weights = nil
	}
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if err := ts.parseLine(line, blk); err != nil {
			return err
		}
	}
	return nil
}

// parseLine parses one edge (or directive/comment) line into blk with
// no allocations: byte-level trimming and splitting, a manual uint32
// parser for endpoints, and a zero-copy string view for ParseFloat so
// weights decode bit-identically to ReadEdgeList.
func (ts *TextSource) parseLine(line []byte, blk *EdgeBlock) error {
	line = trimSpaceBytes(line)
	if len(line) == 0 || line[0] == '#' || line[0] == '%' {
		return nil
	}
	f0, rest := splitField(line)
	if string(f0) == "nodes" {
		f1, rest2 := splitField(rest)
		if len(f1) > 0 && len(rest2) == 0 {
			n, err := strconv.Atoi(string(f1))
			if err != nil {
				return fmt.Errorf("graph: bad nodes directive %q: %w", line, err)
			}
			if n != ts.numNodes {
				return fmt.Errorf("graph: conflicting nodes directives (%d after %d)", n, ts.numNodes)
			}
			return nil
		}
	}
	src, ok := parseNodeField(f0)
	if !ok {
		return fmt.Errorf("graph: bad src in %q", line)
	}
	f1, rest := splitField(rest)
	if len(f1) == 0 {
		return fmt.Errorf("graph: malformed edge line %q", line)
	}
	dst, ok := parseNodeField(f1)
	if !ok {
		return fmt.Errorf("graph: bad dst in %q", line)
	}
	if src >= uint64(ts.numNodes) || dst >= uint64(ts.numNodes) {
		return fmt.Errorf("graph: edge endpoint %d out of range for declared nodes %d",
			max(src, dst), ts.numNodes)
	}
	f2, rest := splitField(rest)
	switch {
	case len(f2) == 0:
		if ts.weighted {
			return fmt.Errorf("graph: unweighted line %q in weighted stream (lines must be uniform)", line)
		}
	case len(rest) != 0:
		return fmt.Errorf("graph: malformed edge line %q", line)
	default:
		if !ts.weighted {
			return fmt.Errorf("graph: weighted line %q in unweighted stream (lines must be uniform)", line)
		}
		w, err := strconv.ParseFloat(zeroCopyString(f2), 64)
		if err != nil {
			return fmt.Errorf("graph: bad weight in %q: %v", line, err)
		}
		if math.IsNaN(w) {
			return fmt.Errorf("graph: NaN weight in %q", line)
		}
		blk.Weights = append(blk.Weights, w)
	}
	blk.Srcs = append(blk.Srcs, NodeID(src))
	blk.Dsts = append(blk.Dsts, NodeID(dst))
	return nil
}

func isSpaceByte(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '\v', '\f':
		return true
	}
	return false
}

// trimSpaceBytes trims ASCII whitespace in place (edge lists are ASCII;
// this is the alloc-free stand-in for strings.TrimSpace).
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && isSpaceByte(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpaceByte(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// splitField returns the first whitespace-delimited field and the rest of
// the line with leading whitespace consumed. An empty field means the
// line is exhausted.
func splitField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && !isSpaceByte(b[i]) {
		i++
	}
	field = b[:i]
	for i < len(b) && isSpaceByte(b[i]) {
		i++
	}
	return field, b[i:]
}

// parseNodeField parses a base-10 node ID that must fit in 32 bits, the
// same domain strconv.ParseUint(f, 10, 32) accepts.
func parseNodeField(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<32-1 {
			return 0, false
		}
	}
	return v, true
}

// zeroCopyString views b as a string for the duration of a call that
// does not retain it (strconv.ParseFloat). Avoids the per-weight copy a
// string(b) conversion would make.
func zeroCopyString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
