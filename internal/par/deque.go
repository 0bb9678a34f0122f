package par

import "sync/atomic"

// Deque is a fixed-capacity Chase-Lev work-stealing deque over int32 items,
// the per-worker queue of the runtime's asynchronous drain scheduler. One
// owner goroutine pushes and pops at the bottom (LIFO, cache-warm); any
// number of thieves steal from the top (FIFO, oldest work first). All
// coordination is a pair of atomic cursors plus atomic slot access — no
// locks, so the enqueue/steal path stays safe to call from conflict-free
// operator bodies.
//
// The capacity is fixed (rounded up to a power of two): Push reports false
// instead of growing (the drain scheduler sizes each deque to an even
// share of its seed, so it never overflows). A bounded buffer keeps the no-overwrite
// argument simple: a slot at index i (mod capacity) can only be rewritten
// once bottom has advanced a full capacity past i, which Push's fullness
// check forbids while any thief still holds top <= i.
type Deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	mask   int64
	buf    []atomic.Int32
}

// NewDeque creates a deque holding at most `capacity` items (rounded up to
// a power of two, minimum 8).
func NewDeque(capacity int) *Deque {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return &Deque{mask: int64(c - 1), buf: make([]atomic.Int32, c)}
}

// Cap returns the fixed capacity.
func (d *Deque) Cap() int { return len(d.buf) }

// Push appends v at the bottom. Owner-only. Reports false when full.
//
//kimbap:conflictfree
func (d *Deque) Push(v int32) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= int64(len(d.buf)) {
		return false
	}
	d.buf[b&d.mask].Store(v)
	d.bottom.Store(b + 1)
	return true
}

// Pop removes and returns the most recently pushed item. Owner-only.
//
//kimbap:conflictfree
func (d *Deque) Pop() (int32, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(t)
		return 0, false
	}
	v := d.buf[b&d.mask].Load()
	if t == b {
		// Last item: race thieves for it via the top cursor.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !won {
			return 0, false
		}
	}
	return v, true
}

// Steal removes and returns the oldest item. Safe for any goroutine.
// Reports false when the deque looks empty or the steal lost a race
// (callers treat both as "try elsewhere").
//
//kimbap:conflictfree
func (d *Deque) Steal() (int32, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	// Read the slot before publishing the claim: once the CAS lands, the
	// owner may reuse the slot (after a full capacity of pushes, which the
	// fullness check delays until top has moved past it).
	v := d.buf[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return 0, false
	}
	return v, true
}

// Empty reports whether the deque appears empty. Advisory under
// concurrency; exact when the owner is quiescent.
func (d *Deque) Empty() bool {
	return d.top.Load() >= d.bottom.Load()
}
