package npm

import (
	"math/bits"

	"kimbap/internal/graph"
)

// denseReduce is one thread's private reduce buffer over the host's local
// proxy IDs: GAR on the reduce side (§4.2). The Full map resolves a reduce
// key to its local ID with the O(1) translation it already keeps (master
// offset, else the partition's dense global→local table), so a reduce to a
// local proxy is a bit test and an array store, not a hash probe.
//
// The seen bitset is the buffer's only index. Local IDs are split into
// combine ranges of whole 64-bit seen words — range r covers words
// [sectionLo(r, T, W), sectionLo(r+1, T, W)) for W words and T threads —
// so combine thread r owns every seen word of its range in every buffer,
// walks them in ascending local-ID order and clears them with plain
// stores: O(entries) work plus one load per range word per buffer.
type denseReduce[V any] struct {
	vals   []V      // indexed by local ID; meaningful only where seen
	seen   []uint64 // bit l set iff vals[l] holds a partial this round
	ranges int      // combine range count T
}

// newDenseReduce allocates a buffer over numLocal local IDs split into
// threads combine ranges.
func newDenseReduce[V any](numLocal, threads int) *denseReduce[V] {
	return &denseReduce[V]{
		vals:   make([]V, numLocal),
		seen:   make([]uint64, (numLocal+63)/64),
		ranges: threads,
	}
}

// wordRange returns combine range r's seen words [lo, hi).
func (b *denseReduce[V]) wordRange(r int) (lo, hi int) {
	t, w := uint64(b.ranges), uint64(len(b.seen))
	return int(sectionLo(r, t, w)), int(sectionLo(r+1, t, w))
}

// reduce merges v into local ID l's partial.
//
//kimbap:conflictfree
func (b *denseReduce[V]) reduce(l graph.NodeID, v V, op func(a, b V) V) {
	w, bit := l/64, uint64(1)<<(l%64)
	if b.seen[w]&bit != 0 {
		v = op(b.vals[l], v)
	}
	b.seen[w] |= bit
	b.vals[l] = v
}

// drainRange folds srcs' range-r partials into b, each after b's own and
// in srcs order, then hands fn each non-empty seen word w of range r in
// ascending order (fn reads vals at 64w + i for its set bits i), and
// leaves range r of b and of every src empty. Combine thread r alone owns
// range r's seen words, so the plain stores are conflict free.
//
//kimbap:conflictfree
func (b *denseReduce[V]) drainRange(r int, srcs []*denseReduce[V], op func(a, b V) V, fn func(w int, word uint64)) {
	lo, hi := b.wordRange(r)
	for _, src := range srcs {
		if src == nil {
			continue
		}
		for w, in := range src.seen[lo:hi] {
			if in == 0 {
				continue
			}
			w += lo
			for ; in != 0; in &= in - 1 {
				l := graph.NodeID(w*64 + bits.TrailingZeros64(in))
				b.reduce(l, src.vals[l], op)
			}
			src.seen[w] = 0
		}
	}
	for w, word := range b.seen[lo:hi] {
		if word != 0 {
			b.seen[lo+w] = 0
			fn(lo+w, word)
		}
	}
}

// footprint returns the buffer's bytes: values and seen words.
func (b *denseReduce[V]) footprint(valSize int) int64 {
	return int64(len(b.vals))*int64(valSize) + int64(len(b.seen))*8
}
