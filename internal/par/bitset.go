package par

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a fixed-size concurrent bitset. The paper's request phase uses
// one to de-duplicate node-property requests (§4.1), the runtime's frontier
// subsystem uses a pair as its current/next active sets, and the parallel
// partitioner shares one per host across its workers for mirror
// discovery. Set is an atomic load/CAS loop (see Set for why not a fetch-or),
// so concurrent setters never lock.
type Bitset struct {
	words []atomic.Uint64
	size  int
}

// NewBitset creates a bitset of the given size with all bits clear.
func NewBitset(size int) *Bitset {
	return &Bitset{words: make([]atomic.Uint64, (size+63)/64), size: size}
}

// Size returns the bitset capacity in bits.
func (b *Bitset) Size() int { return b.size }

// tailMask is the valid-bit mask for the final word: bits at positions
// >= size are storage padding, never payload. Every whole-word reader
// masks the last word with it, so a words buffer reused at a smaller size
// (stale high bits set) can never over-count or surface phantom indices.
func (b *Bitset) tailMask() uint64 {
	if r := uint(b.size) % 64; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// Set atomically sets bit i and reports whether it was previously clear.
//
// Implemented as an explicit load/CAS loop rather than the value-returning
// atomic Or: go1.24.0's amd64 lowering of the Or intrinsic can clobber the
// register holding a live pointer in the inlined caller (the saved receiver
// is overwritten by the CAS-loop scratch), which segfaulted a work-queue
// enqueue path built on Set. The CAS form compiles correctly and gets an
// early exit for already-set bits for free.
func (b *Bitset) Set(i int) bool {
	w := &b.words[i/64]
	mask := uint64(1) << (uint(i) % 64)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// OrWordOwned ors mask into word w with an atomic load and, when that adds
// a bit, one atomic store instead of a CAS: the single-writer, word-at-a-time
// form of Set. The caller must be the only goroutine writing word w until
// the next synchronization point (a ParFor barrier); concurrent readers
// stay safe. The Full map's dense combine marks a seen word's changed
// masters with it, since combine thread r owns every word of its
// word-aligned range. A concurrent Set or OrWordOwned on the same word
// would lose bits.
func (b *Bitset) OrWordOwned(w int, mask uint64) {
	word := &b.words[w]
	if old := word.Load(); mask&^old != 0 {
		word.Store(old | mask)
	}
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return b.words[i/64].Load()&(uint64(1)<<(uint(i)%64)) != 0
}

// Clear resets all bits.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i].Store(0)
	}
}

// SetRange atomically sets every bit in [lo, hi).
func (b *Bitset) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)%64)
	if loW == hiW {
		b.words[loW].Or(loMask & hiMask)
		return
	}
	b.words[loW].Or(loMask)
	for w := loW + 1; w < hiW; w++ {
		b.words[w].Or(^uint64(0))
	}
	b.words[hiW].Or(hiMask)
}

// Words returns the number of 64-bit words backing the bitset.
func (b *Bitset) Words() int { return len(b.words) }

// MaskedWord returns word i with tail-padding bits cleared: callers can
// scan whole words (the dense-frontier regime, the mirror-collection scan)
// without re-deriving the valid-bit mask.
func (b *Bitset) MaskedWord(i int) uint64 {
	w := b.words[i].Load()
	if i == len(b.words)-1 {
		w &= b.tailMask()
	}
	return w
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	if len(b.words) == 0 {
		return 0
	}
	n := 0
	last := len(b.words) - 1
	for i := 0; i < last; i++ {
		n += bits.OnesCount64(b.words[i].Load())
	}
	return n + bits.OnesCount64(b.words[last].Load()&b.tailMask())
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if hi > b.size {
		hi = b.size
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)%64)
	if loW == hiW {
		return bits.OnesCount64(b.words[loW].Load() & loMask & hiMask)
	}
	n := bits.OnesCount64(b.words[loW].Load() & loMask)
	for w := loW + 1; w < hiW; w++ {
		n += bits.OnesCount64(b.words[w].Load())
	}
	return n + bits.OnesCount64(b.words[hiW].Load()&hiMask)
}

// OrInto ors this bitset's words into dst, word at a time. The two bitsets
// must be the same size.
func (b *Bitset) OrInto(dst *Bitset) {
	if dst.size != b.size {
		panic("runtime: OrInto size mismatch")
	}
	for i := range b.words {
		if w := b.words[i].Load(); w != 0 {
			dst.words[i].Or(w)
		}
	}
}

// ForEachSet calls fn for every set bit in ascending order.
func (b *Bitset) ForEachSet(fn func(i int)) {
	b.ForEachSetFrom(0, fn)
}

// ForEachSetFrom calls fn for every set bit at position >= start, in
// ascending order.
func (b *Bitset) ForEachSetFrom(start int, fn func(i int)) {
	b.ForEachSetIn(start, b.size, fn)
}

// ForEachSetIn calls fn for every set bit in [lo, hi), in ascending order.
// It reads only the words overlapping the range, so disjoint ranges can be
// walked by different threads at no more total cost than one full scan.
func (b *Bitset) ForEachSetIn(lo, hi int, fn func(i int)) {
	hi = min(hi, b.size)
	lo = max(lo, 0)
	if lo >= hi {
		return
	}
	loW, hiW := lo/64, (hi-1)/64
	for w := loW; w <= hiW; w++ {
		word := b.words[w].Load()
		if w == loW {
			word &= ^uint64(0) << (uint(lo) % 64)
		}
		if w == hiW {
			word &= ^uint64(0) >> (63 - uint(hi-1)%64)
		}
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
