// Golden tests for the conflictfree analyzer: functions annotated
// //kimbap:conflictfree must not reach a lock acquisition through any
// statically resolvable call.
package conflictfree

import (
	"math/bits"
	"sync"

	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

type store struct {
	mu   sync.Mutex
	vals []float64
}

func (s *store) lockCounting() {
	if s.mu.TryLock() {
		return
	}
	s.mu.Lock()
}

//kimbap:conflictfree
func (s *store) reduceClean(u int, x float64) {
	s.vals[u] += x
}

//kimbap:conflictfree
func (s *store) reduceCleanNested(u int, x float64) {
	s.reduceClean(u, x)
}

func (s *store) reduceLocked(u int, x float64) {
	s.mu.Lock()
	s.vals[u] += x
	s.mu.Unlock()
}

//kimbap:conflictfree
func (s *store) reduceDirectLock(u int, x float64) { // want `conflict-free path acquires a lock: store.reduceDirectLock -> Mutex.Lock`
	s.mu.Lock()
	s.vals[u] += x
	s.mu.Unlock()
}

//kimbap:conflictfree
func (s *store) reduceViaLocked(u int, x float64) { // want `conflict-free path acquires a lock: store.reduceViaLocked -> store.reduceLocked -> Mutex.Lock`
	s.reduceLocked(u, x)
}

//kimbap:conflictfree
func (s *store) reduceViaCounting(u int, x float64) { // want `store.reduceViaCounting -> store.lockCounting`
	s.lockCounting()
	defer s.mu.Unlock()
	s.vals[u] += x
}

// Unannotated functions may lock freely.
func (s *store) applySync(u int, x float64) {
	s.reduceLocked(u, x)
}

// Frontier activation from a reduce path: runtime.Frontier.Activate is an
// atomic load/CAS loop, and the analyzer proves it (chasing the real call
// chain through Bitset.Set into sync/atomic, which is assumed clean).
//
//kimbap:conflictfree
func reduceAndActivate(s *store, fr *runtime.Frontier, u int, x float64) {
	s.vals[u] += x
	fr.Activate(u)
}

// The single-writer word marks of a word-owning combine thread are an
// atomic load and store (Bitset.OrWordOwned): provably lock free as well.
//
//kimbap:conflictfree
func combineAndMark(s *store, dirty *par.Bitset, fr *runtime.Frontier, u int, x float64) {
	s.vals[u] += x
	dirty.OrWordOwned(u/64, 1<<(u%64))
	fr.ActivateWordOwned(u/64, 1<<(u%64))
}

// A mutex-guarded activation wrapper breaks the guarantee.
type lockedFrontier struct {
	mu sync.Mutex
	fr *runtime.Frontier
}

func (l *lockedFrontier) activate(i int) {
	l.mu.Lock()
	l.fr.Activate(i)
	l.mu.Unlock()
}

//kimbap:conflictfree
func reduceAndActivateLocked(s *store, l *lockedFrontier, u int, x float64) { // want `reduceAndActivateLocked -> lockedFrontier.activate -> Mutex.Lock`
	s.vals[u] += x
	l.activate(u)
}

// Bitset Test/Set are plain atomics (a load, a CAS loop); an annotated
// owner loop over one is clean.
//
//kimbap:conflictfree
func claimOwnBits(s *store, b *par.Bitset, ids []int) {
	for _, v := range ids {
		if !b.Test(v) && b.Set(v) {
			s.vals[v]++
		}
	}
}

// A mutex-guarded enqueue wrapper breaks the guarantee — exactly the
// design a CAS-based work queue exists to avoid.
type lockedQueue struct {
	mu sync.Mutex
	q  []int32
}

func (l *lockedQueue) push(v int32) {
	l.mu.Lock()
	l.q = append(l.q, v)
	l.mu.Unlock()
}

//kimbap:conflictfree
func reduceAndEnqueueLocked(s *store, l *lockedQueue, u int, x float64) { // want `reduceAndEnqueueLocked -> lockedQueue.push -> Mutex.Lock`
	s.vals[u] += x
	l.push(int32(u))
}

// Statement-level annotations: placed on a par dispatch, the annotation
// asserts the worker closure is conflict-free (the counting-sort scatter
// idiom — every write lands in a slot reserved by the worker's cursor).
func scatterClean(s *store, n int) {
	//kimbap:conflictfree
	par.Do(2, func(w int) {
		lo, hi := par.Range(w, 2, n)
		for i := lo; i < hi; i++ {
			s.vals[i] = float64(i)
		}
	})
}

func scatterViaLocked(s *store, n int) {
	//kimbap:conflictfree
	par.Static(2, n, func(w, lo, hi int) { // want `conflict-free path acquires a lock: par.Static closure -> store.reduceLocked -> Mutex.Lock`
		for i := lo; i < hi; i++ {
			s.reduceLocked(i, 1)
		}
	})
}

func scatterDirectLock(s *store, n int) {
	//kimbap:conflictfree
	par.Do(2, func(w int) { // want `conflict-free path acquires a lock: par.Do closure -> Mutex.Lock`
		s.mu.Lock()
		s.vals[w]++
		s.mu.Unlock()
	})
}

// An unannotated dispatch may lock freely.
func gatherLocked(s *store, n int) {
	par.Dynamic(2, n, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.reduceLocked(i, 1)
		}
	})
}

// The annotation must sit on a dispatch, not an arbitrary statement.
func misplacedAnnotation(s *store) {
	//kimbap:conflictfree
	s.reduceClean(0, 1) // want `//kimbap:conflictfree on a statement must annotate a par.Do/Static/Dynamic dispatch`
}

// An annotated assignment checks nothing, even when its right-hand side
// wraps a dispatch: only a par dispatch statement names the closure.
func misplacedAssignAnnotation(s *store, n int) {
	//kimbap:conflictfree
	err := dispatchErr(n, func(i int) { s.reduceLocked(i, 1) }) // want `//kimbap:conflictfree on a statement must annotate a par.Do/Static/Dynamic dispatch`
	_ = err
}

func dispatchErr(n int, fn func(i int)) error {
	par.Do(2, func(w int) {
		for i := w; i < n; i += 2 {
			fn(i)
		}
	})
	return nil
}

// The dense reduce buffer idiom: values indexed by local ID and a plain
// seen bitset that is the buffer's only index. Combine thread r owns range
// r's whole seen words and walks them with a trailing-zeros scan, so its
// plain word stores need no atomics and no lock, and the fold's call tree
// proves clean.
type denseBuf struct {
	vals []float64
	seen []uint64
}

//kimbap:conflictfree
func (b *denseBuf) reduce(l int, x float64) {
	if b.seen[l/64]&(1<<(l%64)) != 0 {
		b.vals[l] += x
		return
	}
	b.seen[l/64] |= 1 << (l % 64)
	b.vals[l] = x
}

//kimbap:conflictfree
func (b *denseBuf) foldRange(src *denseBuf, lo, hi int) {
	for w := lo; w < hi; w++ {
		word := src.seen[w]
		src.seen[w] = 0
		for word != 0 {
			l := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			b.reduce(l, src.vals[l])
		}
	}
}

// Guarding the seen words with a shared lock instead of range ownership is
// exactly the conflict CF removes.
type lockedDenseBuf struct {
	mu sync.Mutex
	denseBuf
}

func (b *lockedDenseBuf) reduceLocked(l int, x float64) {
	b.mu.Lock()
	b.reduce(l, x)
	b.mu.Unlock()
}

//kimbap:conflictfree
func (b *lockedDenseBuf) foldRangeLocked(src *denseBuf, lo, hi int) { // want `lockedDenseBuf.foldRangeLocked -> lockedDenseBuf.reduceLocked -> Mutex.Lock`
	for w := lo; w < hi; w++ {
		word := src.seen[w]
		src.seen[w] = 0
		for word != 0 {
			l := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			b.reduceLocked(l, src.vals[l])
		}
	}
}
