package runtime

import "kimbap/internal/par"

// Frontier is a double-buffered active-vertex set for frontier-driven BSP
// rounds. Late CC/MIS/MSF rounds change fewer than 1% of vertices, yet a
// dense round still visits all of them; a Frontier makes round cost
// proportional to the active set instead (GraphLab's scheduling insight,
// Ligra's direction switch).
//
// Protocol per BSP round: the compute phase iterates the *current* set
// (Host.ParForActive) while reduce and broadcast callbacks Activate bits in
// the *next* set; the round driver (Loop.Run) then swaps the buffers after
// the round's last sync, and it alone does. Activate
// is an atomic load/CAS loop on the underlying par.Bitset, so activation
// from conflict-free reduce paths needs no locks and no per-thread buffers —
// the //kimbap:conflictfree annotation is checked by kimbapvet.
type Frontier struct {
	cur, next *par.Bitset
	count     int // set bits in cur, computed by advance
	// idx is the compacted list of cur's set bits, built lazily per round
	// for sparse iteration and reused across rounds.
	idx      []int32
	idxValid bool
}

// NewFrontier creates a frontier over [0, size) with both sets empty.
func NewFrontier(size int) *Frontier {
	return &Frontier{cur: par.NewBitset(size), next: par.NewBitset(size)}
}

// Size returns the vertex-space size.
func (f *Frontier) Size() int { return f.cur.Size() }

// Count returns the number of active vertices in the current set.
func (f *Frontier) Count() int { return f.count }

// CountRange returns the number of active vertices in [lo, hi) of the
// current set (e.g. the master-only prefix of a host's local ID space).
func (f *Frontier) CountRange(lo, hi int) int { return f.cur.CountRange(lo, hi) }

// IsActive reports whether vertex i is in the current set.
func (f *Frontier) IsActive(i int) bool { return f.cur.Test(i) }

// Activate adds vertex i to the next set. Safe for concurrent use from
// worker threads and from reduce/broadcast decode callbacks: the
// underlying par.Bitset.Set is an atomic load/CAS loop, no locks.
//
//kimbap:conflictfree
func (f *Frontier) Activate(i int) { f.next.Set(i) }

// ActivateWordOwned adds vertex 64w+i to the next set for every bit i of
// mask, with no locked instruction (par.Bitset.OrWordOwned). The caller
// must be the only writer of word w of the next set until the next
// barrier — a combine thread over a word-aligned range of local IDs.
//
//kimbap:conflictfree
func (f *Frontier) ActivateWordOwned(w int, mask uint64) { f.next.OrWordOwned(w, mask) }

// ActivateRange adds every vertex in [lo, hi) to the next set.
func (f *Frontier) ActivateRange(lo, hi int) { f.next.SetRange(lo, hi) }

// ActivateAll adds every vertex to the next set. Phases whose first round
// must be dense (e.g. after another phase changed values untracked) call
// it before running their Loop.
func (f *Frontier) ActivateAll() { f.next.SetRange(0, f.next.Size()) }

// ActivateSet adds every vertex in b to the next set; used to seed a phase
// from an accumulated change set instead of a full activation.
func (f *Frontier) ActivateSet(b *par.Bitset) { b.OrInto(f.next) }

// OrCurrentInto ors the current set into dst (same size). A phase that
// narrows its frontier round by round calls this after each round (from
// its Loop's Done) to accumulate every round's changed set for the next
// phase's seed.
func (f *Frontier) OrCurrentInto(dst *par.Bitset) { f.cur.OrInto(dst) }

// advance makes the next set current, clears the new next set, and
// returns the new current count. Loop.Run calls it between BSP rounds,
// after all activations for the round have been synchronized (reduce +
// broadcast).
func (f *Frontier) advance() int {
	f.cur, f.next = f.next, f.cur
	f.next.Clear()
	f.count = f.cur.Count()
	f.idxValid = false
	return f.count
}

// Reset empties both sets.
func (f *Frontier) Reset() {
	f.cur.Clear()
	f.next.Clear()
	f.count = 0
	f.idxValid = false
}

// MemoryFootprint returns the bytes held by the frontier's two bitsets and
// its compaction scratch, for the npm memory accounting.
func (f *Frontier) MemoryFootprint() int64 {
	return 2*int64(f.cur.Words())*8 + int64(cap(f.idx))*4
}

// compact returns the current set as an index list, rebuilding it only
// when the current set changed since the last call.
func (f *Frontier) compact() []int32 {
	if f.idxValid {
		return f.idx
	}
	f.idx = f.idx[:0]
	f.cur.ForEachSet(func(i int) { f.idx = append(f.idx, int32(i)) })
	f.idxValid = true
	return f.idx
}
