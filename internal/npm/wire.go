package npm

import (
	"math/bits"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
)

// The sync-phase payload grammar. There is one format and no negotiation:
// every host runs the same binary, so a payload needs no version tag. Empty
// payloads stay zero-length — "nothing to send" costs no header bytes.
//
// A reduce payload to a receiver with T gather threads is
//
//	payload  := present seclen* body*
//	present  := ceil(T/8) bytes, bit t set iff section t is non-empty
//	seclen   := uvarint body length, one per present section, ascending t
//	body     := sectionSparse uvarint(count) (uvarint(key − base_t) value)*
//	          | sectionDense  uvarint(maskBytes) mask value*
//
// where base_t is where gather thread t's slice of the receiver's key space
// starts (sectionLo). Each section picks the smaller of its two body forms.
// Sparse keys are base-relative, not chained against the previous key: a
// section concatenates the combine threads' cells in insertion order, so
// consecutive keys are unsorted. Base-relative keys are order independent,
// and so is the dense form's positional mask, which keeps every payload's
// size (and hence the comm bytes the bench gates pin) deterministic.
// Values are fixed width (Codec.Size).
//
// Request ID lists are sorted, so they are plain delta-varint: the first
// ID, then successive differences (see appendIDList).

// Section body forms inside a reduce payload. The broadcast payload uses
// the same form byte for its positional sparse/dense choice.
const (
	sectionSparse byte = 0 // [uvarint count][count x (uvarint key-rel, value)]
	sectionDense  byte = 1 // [uvarint maskBytes][mask][values, ascending key]
)

// reduceFrame is the reduce-sync payload frame every SGR map variant
// embeds: Full (SGR+CF+GAR), SGR+CF, SGR-only and Vite differ only in how
// they combine and where they apply, never in what goes on the wire.
//
// The frame owns the per-destination section geometry, the encoded cells
// the combine pass writes, the double-buffered send payloads, and the
// ExchangeFunc encoder that assembles them. A destination's key space is
// [destLo, destLo+destN): Full maps pass each host's master range, the
// hash-distributed maps the whole global ID space for every host. Either
// way section rt covers that space's rt-th range bucket, so receiver gather
// thread rt decodes exactly one section per payload.
type reduceFrame[V any] struct {
	codec   Codec[V]
	self    int
	threads int

	destLo []graph.NodeID // per-destination key-space start
	destN  []uint64       // per-destination key-space size
	// secBase[o][rt] = sectionLo(rt, threads, destN[o]), the key base of
	// destination o's section rt. Precomputed because the combine pass
	// needs it per surviving entry and sectionLo costs a 64-bit divide.
	secBase [][]uint64

	cells [][][][]byte // [tid][dest][receiver gather thread] encoded entries
	cellN [][][]int    // [tid][dest][rt] entry counts, for the body-form choice

	// Per-destination payloads, double-buffered per the comm package's
	// buffer-ownership contract; out points at the current generation.
	sendBufs [2][][]byte
	sendGen  int
	out      [][]byte
	// encode is payload bound once, so hot rounds allocate no closure.
	encode func(to int) []byte

	// Scratch for assembling one dense-form section at a time (payload
	// runs destinations sequentially): a bitmap over the section's key
	// range and value slots indexed by base-relative key. Grown on the
	// first dense section that needs more, so maps that never send one
	// never pay for it.
	denseMask []byte
	denseVals []byte
}

// newReduceFrame builds the frame for a host of the given rank; space
// reports destination o's key space.
func newReduceFrame[V any](codec Codec[V], self, threads, numHosts int,
	space func(o int) (lo graph.NodeID, n uint64)) *reduceFrame[V] {

	f := &reduceFrame[V]{
		codec:   codec,
		self:    self,
		threads: threads,
		destLo:  make([]graph.NodeID, numHosts),
		destN:   make([]uint64, numHosts),
		secBase: make([][]uint64, numHosts),
		cells:   make([][][][]byte, threads),
		cellN:   make([][][]int, threads),
	}
	f.encode = f.payload
	for t := range f.cells {
		f.cells[t] = make([][][]byte, numHosts)
		f.cellN[t] = make([][]int, numHosts)
		for o := range f.cells[t] {
			f.cells[t][o] = make([][]byte, threads)
			f.cellN[t][o] = make([]int, threads)
		}
	}
	for g := range f.sendBufs {
		f.sendBufs[g] = make([][]byte, numHosts)
	}
	for o := 0; o < numHosts; o++ {
		f.destLo[o], f.destN[o] = space(o)
		f.secBase[o] = make([]uint64, threads)
		for rt := range f.secBase[o] {
			f.secBase[o][rt] = sectionLo(rt, uint64(threads), f.destN[o])
		}
	}
	return f
}

// sectionEnd returns where destination o's section rt ends.
func (f *reduceFrame[V]) sectionEnd(o, rt int) uint64 {
	if rt+1 < f.threads {
		return f.secBase[o][rt+1]
	}
	return f.destN[o]
}

// resetCells empties combine thread t's cells for a new round.
func (f *reduceFrame[V]) resetCells(t int) {
	for o := range f.cells[t] {
		for rt := range f.cells[t][o] {
			f.cells[t][o][rt] = f.cells[t][o][rt][:0]
			f.cellN[t][o][rt] = 0
		}
	}
}

// add encodes one combined entry for destination o into combine thread t's
// cell for the receiver gather thread whose range holds k. Threads write
// only their own cells, so concurrent adds from distinct t are race free.
func (f *reduceFrame[V]) add(t, o int, k graph.NodeID, v V) {
	rel := uint64(k - f.destLo[o])
	rt := rangeBucket(graph.NodeID(rel), uint64(f.threads), f.destN[o])
	cell := comm.AppendUvarint(f.cells[t][o][rt], rel-f.secBase[o][rt])
	f.cells[t][o][rt] = f.codec.Append(cell, v)
	f.cellN[t][o][rt]++
}

// exchange sends every destination's payload, encoding each immediately
// before its Send (comm.ExchangeFunc), and returns the received payloads
// in recvIn.
func (f *reduceFrame[V]) exchange(ep comm.Endpoint, recvIn [][]byte) [][]byte {
	f.out = f.sendBufs[f.sendGen]
	f.sendGen ^= 1
	return comm.ExchangeFunc(ep, comm.TagReduce, f.encode, recvIn)
}

// sectionSize returns section (o, rt)'s entry count and the lengths of its
// sparse and dense bodies (form byte excluded) plus the dense mask length.
// All are functions of the order-independent cell contents, so the header
// pass and the body pass make the same form choice.
func (f *reduceFrame[V]) sectionSize(o, rt int) (n, sparseLen, denseLen, mb int) {
	secBytes := 0
	for t := 0; t < f.threads; t++ {
		n += f.cellN[t][o][rt]
		secBytes += len(f.cells[t][o][rt])
	}
	mb = int(f.sectionEnd(o, rt)-f.secBase[o][rt]+7) / 8
	sparseLen = comm.UvarintLen(uint64(n)) + secBytes
	denseLen = comm.UvarintLen(uint64(mb)) + mb + n*f.codec.Size()
	return n, sparseLen, denseLen, mb
}

// payload assembles the reduce payload for destination o from every
// combine thread's cells. A round with nothing for o returns an empty
// payload. Called by ExchangeFunc once per destination, immediately before
// that destination's Send.
func (f *reduceFrame[V]) payload(o int) []byte {
	buf := f.out[o][:0]
	pm := len(buf)
	for i := 0; i < (f.threads+7)/8; i++ {
		buf = append(buf, 0)
	}
	empty := true
	for rt := 0; rt < f.threads; rt++ {
		n, sparseLen, denseLen, _ := f.sectionSize(o, rt)
		if n == 0 {
			continue
		}
		empty = false
		buf[pm+rt/8] |= 1 << (uint(rt) % 8)
		buf = comm.AppendUvarint(buf, uint64(1+min(sparseLen, denseLen)))
	}
	if empty {
		f.out[o] = buf[:0]
		return f.out[o]
	}
	vs := f.codec.Size()
	for rt := 0; rt < f.threads; rt++ {
		n, sparseLen, denseLen, mb := f.sectionSize(o, rt)
		if n == 0 {
			continue
		}
		if sparseLen <= denseLen {
			buf = append(buf, sectionSparse)
			buf = comm.AppendUvarint(buf, uint64(n))
			for t := 0; t < f.threads; t++ {
				buf = append(buf, f.cells[t][o][rt]...)
			}
			continue
		}
		// Dense: scatter the unsorted cells into value slots indexed by
		// base-relative key, then emit the bitmap and the occupied slots in
		// ascending key order.
		buf = append(buf, sectionDense)
		buf = comm.AppendUvarint(buf, uint64(mb))
		if len(f.denseMask) < mb {
			f.denseMask = make([]byte, mb)
			f.denseVals = make([]byte, 8*mb*vs)
		}
		mask := f.denseMask[:mb]
		clear(mask)
		for t := 0; t < f.threads; t++ {
			sec := f.cells[t][o][rt]
			for len(sec) > 0 {
				var d uint64
				d, sec = comm.ReadUvarint(sec)
				copy(f.denseVals[int(d)*vs:], sec[:vs])
				sec = sec[vs:]
				mask[d/8] |= 1 << (uint(d) % 8)
			}
		}
		buf = append(buf, mask...)
		for bi, mbyte := range mask {
			for mbyte != 0 {
				d := bi*8 + bits.TrailingZeros8(mbyte)
				mbyte &= mbyte - 1
				buf = append(buf, f.denseVals[d*vs:(d+1)*vs]...)
			}
		}
	}
	f.out[o] = buf
	return buf
}

// section returns a reader over gather thread t's entries in a received
// payload. Keys come back absolute: the section base is this host's own
// key space's bucket t.
func (f *reduceFrame[V]) section(payload []byte, t int) sectionReader[V] {
	base := f.destLo[f.self] + graph.NodeID(f.secBase[f.self][t])
	r := sectionReader[V]{codec: f.codec, base: base}
	sec := reduceSection(payload, t, f.threads)
	if len(sec) == 0 {
		return r // absent section
	}
	var n uint64
	n, r.b = comm.ReadUvarint(sec[1:])
	if sec[0] == sectionDense {
		r.dense = true
		r.mask, r.b = r.b[:n], r.b[n:]
	} else {
		r.left = n
	}
	return r
}

// footprint returns the bytes held by the frame's persistent buffers.
func (f *reduceFrame[V]) footprint() int64 {
	var total int64
	for t := range f.cells {
		for o := range f.cells[t] {
			for _, b := range f.cells[t][o] {
				total += int64(cap(b))
			}
			total += int64(len(f.cellN[t][o])) * 8
		}
	}
	for g := range f.sendBufs {
		for _, b := range f.sendBufs[g] {
			total += int64(cap(b))
		}
	}
	return total + int64(cap(f.denseMask)) + int64(cap(f.denseVals))
}

// sectionReader walks one reduce section's entries in wire order. It is a
// by-value iterator, like idListDecoder, so gather loops decode with zero
// allocations.
type sectionReader[V any] struct {
	codec Codec[V]
	b     []byte       // unread entries (sparse) or values (dense)
	base  graph.NodeID // the section's key base
	left  uint64       // sparse: entries not yet returned
	dense bool
	mask  []byte // dense: the presence bitmap
	mi    int    // dense: index of the next unread mask byte
	word  byte   // dense: unreturned bits of mask byte mi-1
}

// next returns the next entry, or ok=false at the end of the section.
func (r *sectionReader[V]) next() (k graph.NodeID, v V, ok bool) {
	var d int
	if r.dense {
		for r.word == 0 {
			if r.mi == len(r.mask) {
				return 0, v, false
			}
			r.word = r.mask[r.mi]
			r.mi++
		}
		d = (r.mi-1)*8 + bits.TrailingZeros8(r.word)
		r.word &= r.word - 1
	} else {
		if r.left == 0 {
			return 0, v, false
		}
		r.left--
		var u uint64
		u, r.b = comm.ReadUvarint(r.b)
		d = int(u)
	}
	v, r.b = r.codec.Read(r.b)
	return r.base + graph.NodeID(d), v, true
}

// reduceSection extracts gather thread t's section body from a reduce
// payload; an empty payload or an absent section yields nil. Payloads come
// from peer hosts in the same process, so malformed input panics; the fuzz
// target exercises reduceSectionChecked instead.
func reduceSection(payload []byte, t, threads int) []byte {
	if len(payload) == 0 || payload[t/8]&(1<<(uint(t)%8)) == 0 {
		return nil
	}
	maskLen := (threads + 7) / 8
	present := payload[:maskLen]
	b := payload[maskLen:]
	var before, secLen uint64
	for rt := 0; rt < threads; rt++ {
		if present[rt/8]&(1<<(uint(rt)%8)) == 0 {
			continue
		}
		var ln uint64
		ln, b = comm.ReadUvarint(b)
		if rt < t {
			before += ln
		} else if rt == t {
			secLen = ln
		}
	}
	return b[before : before+secLen]
}

// reduceSectionChecked is reduceSection over untrusted bytes: it reports
// malformed input (short bitmap, truncated header, section lengths that do
// not add up to the body bytes) instead of panicking, even when section t
// itself is absent. The decoder fuzz target uses it to prove the trusted
// decoder's bounds arithmetic never reads out of range.
func reduceSectionChecked(payload []byte, t, threads int) (sec []byte, ok bool) {
	if t < 0 || t >= threads {
		return nil, false
	}
	if len(payload) == 0 {
		return nil, true
	}
	maskLen := (threads + 7) / 8
	if len(payload) < maskLen {
		return nil, false
	}
	present := payload[:maskLen]
	b := payload[maskLen:]
	var before, secLen, total uint64
	for rt := 0; rt < threads; rt++ {
		if present[rt/8]&(1<<(uint(rt)%8)) == 0 {
			continue
		}
		ln, rest, lok := comm.ReadUvarintChecked(b)
		if !lok || ln > uint64(len(rest)) {
			return nil, false
		}
		b = rest
		if rt < t {
			before += ln
		} else if rt == t {
			secLen = ln
		}
		total += ln
	}
	if total != uint64(len(b)) {
		return nil, false
	}
	if present[t/8]&(1<<(uint(t)%8)) == 0 {
		return nil, true
	}
	return b[before : before+secLen], true
}

// validSectionEntries reports whether sec parses as a complete section
// body: nothing at all (absent section), or a form byte followed by a
// self-delimiting sparse or dense body with no trailing bytes.
func validSectionEntries(sec []byte, valSize int) bool {
	if len(sec) == 0 {
		return true
	}
	switch sec[0] {
	case sectionSparse:
		count, rest, ok := comm.ReadUvarintChecked(sec[1:])
		if !ok {
			return false
		}
		sec = rest
		for n := uint64(0); n < count; n++ {
			_, rest, ok := comm.ReadUvarintChecked(sec)
			if !ok {
				return false
			}
			sec = rest
			if len(sec) < valSize {
				return false
			}
			sec = sec[valSize:]
		}
		return len(sec) == 0
	case sectionDense:
		maskBytes, rest, ok := comm.ReadUvarintChecked(sec[1:])
		if !ok || maskBytes > uint64(len(rest)) {
			return false
		}
		pop := 0
		for _, m := range rest[:maskBytes] {
			pop += bits.OnesCount8(m)
		}
		return uint64(len(rest))-maskBytes == uint64(pop*valSize)
	default:
		return false
	}
}

// appendIDList encodes a request-ID list, sorted ascending (the request
// paths build them from ascending bitset walks or pre-sorted pin sets), as
// delta-varint: the first ID, then successive differences, which are small
// for the clustered request sets graph traversals produce. An empty list
// encodes as an empty payload.
func appendIDList(buf []byte, ids []graph.NodeID) []byte {
	prev := graph.NodeID(0)
	for _, id := range ids {
		buf = comm.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// idListDecoder walks an appendIDList payload in order. It is a by-value
// iterator so the serve loops in the request paths decode with zero
// allocations.
type idListDecoder struct {
	b  []byte // unread payload
	id uint64 // running delta accumulator
}

// next returns the next ID, or ok=false at the end of the list.
func (d *idListDecoder) next() (graph.NodeID, bool) {
	if len(d.b) == 0 {
		return 0, false
	}
	var delta uint64
	delta, d.b = comm.ReadUvarint(d.b)
	d.id += delta
	return graph.NodeID(d.id), true
}
