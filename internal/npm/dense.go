package npm

import "kimbap/internal/graph"

// denseReduce is one thread's private reduce buffer over the host's local
// proxy IDs: GAR on the reduce side (§4.2). The Full map resolves a reduce
// key to its local ID with the O(1) translation it already keeps (master
// offset, else the partition's dense global→local table), so a reduce to a
// local proxy is a bit test and an array store, not a hash probe.
//
// Local IDs are split into combine ranges of whole 64-bit seen words —
// range r covers words [sectionLo(r, T, W), sectionLo(r+1, T, W)) for W
// words and T threads — so combine thread r owns every seen word its range
// touches and clears them with plain stores. First touches are listed per
// range, which keeps the combine and reset work linear in the entries.
type denseReduce[V any] struct {
	vals []V      // indexed by local ID; meaningful only where seen
	seen []uint64 // bit l set iff vals[l] holds a partial this round
	// touched[r] lists range r's first-touched local IDs in touch order.
	// Each is a window of one backing array with capacity exactly the
	// range's size, so appends never reallocate: a round touches each
	// local ID at most once.
	touched [][]graph.NodeID
}

// newDenseReduce allocates a buffer over numLocal local IDs split into
// threads combine ranges.
func newDenseReduce[V any](numLocal, threads int) *denseReduce[V] {
	words := (numLocal + 63) / 64
	b := &denseReduce[V]{
		vals:    make([]V, numLocal),
		seen:    make([]uint64, words),
		touched: make([][]graph.NodeID, threads),
	}
	backing := make([]graph.NodeID, numLocal)
	for r := range b.touched {
		lo, hi := b.localRange(r)
		b.touched[r] = backing[lo:lo:hi]
	}
	return b
}

// localRange returns combine range r's local IDs [lo, hi).
func (b *denseReduce[V]) localRange(r int) (lo, hi int) {
	t, w := uint64(len(b.touched)), uint64(len(b.seen))
	lo = 64 * int(sectionLo(r, t, w))
	hi = min(64*int(sectionLo(r+1, t, w)), len(b.vals))
	return lo, hi
}

// reduce merges v into local ID l's partial.
//
//kimbap:conflictfree
func (b *denseReduce[V]) reduce(l graph.NodeID, v V, op func(a, b V) V) {
	w, bit := l/64, uint64(1)<<(l%64)
	if b.seen[w]&bit != 0 {
		b.vals[l] = op(b.vals[l], v)
		return
	}
	b.seen[w] |= bit
	b.vals[l] = v
	r := rangeBucket(w, uint64(len(b.touched)), uint64(len(b.seen)))
	b.touched[r] = append(b.touched[r], l)
}

// foldRange merges src's range-r partials into b, each after b's own, and
// leaves src's range r empty. Combine thread r is the only caller for range
// r, and range r's seen words belong to it alone, so the plain stores to
// both buffers are conflict free.
//
//kimbap:conflictfree
func (b *denseReduce[V]) foldRange(src *denseReduce[V], r int, op func(a, b V) V) {
	for _, l := range src.touched[r] {
		src.seen[l/64] = 0
		b.reduce(l, src.vals[l], op)
	}
	src.touched[r] = src.touched[r][:0]
}

// drainRange calls fn for every range-r partial in first-touch order and
// leaves range r empty. Conflict free for the same reason as foldRange.
//
//kimbap:conflictfree
func (b *denseReduce[V]) drainRange(r int, fn func(l graph.NodeID, v V)) {
	for _, l := range b.touched[r] {
		b.seen[l/64] = 0
		fn(l, b.vals[l])
	}
	b.touched[r] = b.touched[r][:0]
}

// footprint returns the buffer's bytes: values, seen words and the
// touched lists' backing array.
func (b *denseReduce[V]) footprint(valSize int) int64 {
	return int64(len(b.vals))*int64(valSize+4) + int64(len(b.seen))*8
}
