package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Text edge-list format: one edge per line, "src dst" or "src dst weight";
// lines starting with '#' or '%' are comments. Node count is inferred as
// max ID + 1 unless a leading "nodes N" directive is present; with a
// directive, every endpoint must be < N (the CSR indexes by ID, so an
// out-of-range edge would corrupt every downstream pass). A weight may be
// any float but NaN, which has no place in the (weight, endpoints) edge
// order MSF and its reference sort by; every decoder, text and KMB2,
// rejects it.
//
// The binary block format ("KMB2") lives in blockfile.go.

// ReadEdgeList parses a text edge list from r. Edges go straight into a
// Builder's columns; the node count is set once the whole list is read.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := NewBuilder(0)
	numNodes := 0
	declared := false
	maxID := NodeID(0)
	seen := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "nodes" && len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || int64(n) > math.MaxUint32 {
				return nil, fmt.Errorf("graph: bad nodes directive %q", line)
			}
			numNodes = n
			declared = true
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: malformed edge line %q", line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad src in %q: %w", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad dst in %q: %w", line, err)
		}
		if len(fields) == 3 {
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: bad weight in %q: %w", line, err)
			}
			if math.IsNaN(w) {
				return nil, fmt.Errorf("graph: NaN weight in %q", line)
			}
			b.AddWeightedEdge(NodeID(src), NodeID(dst), w)
		} else {
			b.AddEdge(NodeID(src), NodeID(dst))
		}
		maxID = max(maxID, NodeID(src), NodeID(dst))
		seen = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared && seen && int64(maxID) >= int64(numNodes) {
		return nil, fmt.Errorf("graph: edge endpoint %d out of range for declared nodes %d",
			maxID, numNodes)
	}
	if numNodes == 0 && seen {
		numNodes = int(maxID) + 1
	}
	b.numNodes = numNodes
	return b.Build(), nil
}

// WriteEdgeList writes g as a text edge list with a nodes directive,
// suitable for ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	for n := 0; n < g.NumNodes(); n++ {
		lo, hi := g.EdgeRange(NodeID(n))
		for e := lo; e < hi; e++ {
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", n, g.Dst(e), g.Weight(e))
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", n, g.Dst(e))
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Little-endian column decoders for KMB2 blocks (blockfile.go): explicit
// byte-slice loads, no reflection (binary.Read on a slice walks
// reflect.Value per element, an order of magnitude slower) and no unsafe.

func decodeNodeIDs(dst []NodeID, b []byte) {
	for i := range dst {
		dst[i] = NodeID(binary.LittleEndian.Uint32(b[i*4:]))
	}
}

// decodeFloat64s decodes a weight column, rejecting NaN as the text
// parsers do. A NaN is exactly a value whose bits without the sign exceed
// +Inf's, so the loop keeps a branch-free running max of those bits and
// tests it once: a per-weight NaN branch doubled the decode time.
func decodeFloat64s(dst []float64, b []byte) error {
	var mag uint64
	for i := range dst {
		u := binary.LittleEndian.Uint64(b[i*8:])
		mag = max(mag, u&^(1<<63))
		dst[i] = math.Float64frombits(u)
	}
	if mag > math.Float64bits(math.Inf(1)) {
		return fmt.Errorf("NaN weight at edge %d", slices.IndexFunc(dst, math.IsNaN))
	}
	return nil
}

// IsKMB2File reports whether the file at path starts with the KMB2
// magic; any other file is a text edge list. A file that starts with the
// magic of the retired KMB1 CSR dump is an error naming that format,
// rather than a text parse error that quotes binary bytes.
func IsKMB2File(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil // shorter than a magic: text (possibly empty)
		}
		return false, err
	}
	if string(magic[:]) == "KMB1" {
		return false, fmt.Errorf("graph: %s is in the retired KMB1 format; regenerate it as KMB2 or text", path)
	}
	return magic == kmb2Magic, nil
}
