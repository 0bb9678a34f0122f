// Golden tests for the lockdiscipline analyzer: Lock/Unlock pairing on
// all forward paths and no blocking operation while a mutex is held.
package lockdiscipline

import (
	"sync"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/par"
	"kimbap/internal/runtime"
)

type shard struct {
	mu sync.Mutex
	m  map[int]int
}

func deferPair(sh *shard, k, v int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m[k] = v
}

func explicitPair(sh *shard, k int) int {
	sh.mu.Lock()
	v := sh.m[k]
	sh.mu.Unlock()
	return v
}

func leakOnEarlyReturn(sh *shard, k int) int {
	sh.mu.Lock() // want `sh.mu.Lock\(\) is not released on all paths`
	if k < 0 {
		return 0
	}
	v := sh.m[k]
	sh.mu.Unlock()
	return v
}

func leakAtFunctionEnd(sh *shard, k, v int) {
	sh.mu.Lock() // want `sh.mu.Lock\(\) is not released on all paths`
	sh.m[k] = v
}

func divergingBranches(sh *shard, cond bool) {
	if cond { // want `lock state diverges across if/else branches`
		sh.mu.Lock()
	}
	sh.mu.Unlock()
}

func tryLockIdiom(sh *shard, k, v int) bool {
	if sh.mu.TryLock() {
		sh.m[k] = v
		sh.mu.Unlock()
		return true
	}
	return false
}

func negatedTryLockIdiom(sh *shard, k, v int) {
	if !sh.mu.TryLock() {
		return
	}
	sh.m[k] = v
	sh.mu.Unlock()
}

func tryLockResultIgnored(sh *shard) {
	sh.mu.TryLock() // want `result of sh.mu.TryLock\(\) ignored`
	sh.mu.Unlock()
}

func sendWhileLocked(sh *shard, ch chan int) {
	sh.mu.Lock()
	ch <- 1 // want `channel send while holding sh.mu`
	sh.mu.Unlock()
}

func recvWhileDeferLocked(sh *shard, ch chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	<-ch // want `channel receive while holding sh.mu`
}

func barrierWhileLocked(sh *shard, ep comm.Endpoint) {
	sh.mu.Lock()
	comm.Barrier(ep) // want `comm.Barrier call while holding sh.mu`
	sh.mu.Unlock()
}

// The overlap-era entry points block like Exchange does: ExchangeFunc
// receives from every peer, and a buffered send can flush to a full socket.
func exchangeFuncWhileLocked(sh *shard, ep comm.Endpoint) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	comm.ExchangeFunc(ep, comm.TagApp, nil, nil) // want `comm.ExchangeFunc call while holding sh.mu`
}

func sendBufferedWhileLocked(sh *shard, bs comm.BufferedSender) {
	sh.mu.Lock()
	bs.SendBuffered(1, comm.TagApp, nil) // want `comm.SendBuffered call while holding sh.mu`
	bs.FlushSends()                      // want `comm.FlushSends call while holding sh.mu`
	sh.mu.Unlock()
}

// Codec helpers never block: no diagnostic.
func codecWhileLocked(sh *shard, buf []byte) []byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return comm.AppendUint32(buf, 7)
}

func barrierAfterUnlock(sh *shard, ep comm.Endpoint, k, v int) {
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
	comm.Barrier(ep)
}

// Per-iteration lock/unlock (the memory-accounting idiom) is fine.
func lockPerIteration(shards []shard) {
	for i := range shards {
		shards[i].mu.Lock()
		shards[i].mu.Unlock()
	}
}

func lockHeldAcrossIterations(shards []shard) {
	for i := range shards { // want `lock state changes across loop iteration`
		shards[i].mu.Lock()
	}
}

// Worker-pool dispatches park the caller until every worker finishes, so
// holding a shard lock across one deadlocks any worker that needs it.
func parForWhileLocked(sh *shard, h *runtime.Host) {
	sh.mu.Lock()
	h.ParFor(64, func(tid, i int) {}) // want `runtime.ParFor call while holding sh.mu`
	sh.mu.Unlock()
}

func parForActiveWhileDeferLocked(sh *shard, h *runtime.Host, fr *runtime.Frontier) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h.ParForActive(fr, func(tid int, node graph.NodeID) {}) // want `runtime.ParForActive call while holding sh.mu`
}

// Frontier activation is an atomic load/CAS loop: it never blocks, so marking
// a vertex active inside a locked region is fine.
func activateWhileLocked(sh *shard, fr *runtime.Frontier, k, v int) {
	sh.mu.Lock()
	sh.m[k] = v
	fr.Activate(k)
	sh.mu.Unlock()
}

func parForNodesAfterUnlock(sh *shard, h *runtime.Host, k, v int) {
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
	h.ParForNodes(func(tid int, node graph.NodeID) {})
}

// The conflict-counting acquire wrapper intentionally returns holding
// sh.mu; the analyzer exempts it and models its callers correctly.
func (sh *shard) lockCounting() {
	if sh.mu.TryLock() {
		return
	}
	sh.mu.Lock()
}

func useAcquireWrapper(sh *shard, k, v int) {
	sh.lockCounting()
	defer sh.mu.Unlock()
	sh.m[k] = v
}

func wrapperLeaks(sh *shard, k, v int) {
	sh.lockCounting() // want `sh.mu.Lock\(\) is not released on all paths`
	sh.m[k] = v
}

// The ingestion pool's dispatches park the caller exactly like ParFor.
func parDoWhileLocked(sh *shard) {
	sh.mu.Lock()
	par.Do(4, func(w int) {}) // want `par.Do call while holding sh.mu`
	sh.mu.Unlock()
}

func parStaticWhileDeferLocked(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	par.Static(4, 256, func(w, lo, hi int) {}) // want `par.Static call while holding sh.mu`
}

func parDynamicWhileLocked(sh *shard) {
	sh.mu.Lock()
	par.Dynamic(4, 256, 16, func(lo, hi int) {}) // want `par.Dynamic call while holding sh.mu`
	sh.mu.Unlock()
}

func prefixSumWhileLocked(sh *shard, a []int64) int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return par.PrefixSum(4, a) // want `par.PrefixSum call while holding sh.mu`
}

// Range and Resolve are pure arithmetic: no diagnostic.
func parRangeWhileLocked(sh *shard, k int) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lo, hi := par.Range(0, par.Resolve(4), k)
	return sh.m[lo] + sh.m[hi]
}

func parDoAfterUnlock(sh *shard, k, v int) {
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
	par.Do(4, func(w int) {})
}
