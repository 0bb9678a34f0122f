package npm

import (
	"sync/atomic"

	"kimbap/internal/graph"
)

// The asynchronous apply path. During a runtime.AsyncDrain, operator
// bodies bypass the round-buffered thread-local reduce for targets this
// host owns: they combine via an atomic CAS loop directly on the master
// array, so later bodies in the same drain read the new value. Every
// other target — mirrors included — takes the buffered Reduce path and
// surfaces at the next reduce-sync, which is what keeps cross-host
// synchronization BSP. A master CAS is an exact apply, so the path is
// sound for any operator.
//
// The handle is deliberately non-generic (NodeID-valued Full maps only):
// Go cannot CAS an arbitrary comparable V, but *graph.NodeID converts
// legally to *uint32 (identical underlying types), giving a lock-free
// 32-bit CAS with no unsafe. Its one user is the CC shortcut's
// pointer-jumping chase.

// AsyncNodeHandle is an in-place atomic view over a Full-variant NodeID
// map for use inside asynchronous drains. Obtain one with AsyncNode.
//
// Protocol: between a drain's start and the next ReduceSync, every access
// to the map's local values must go through the handle (Load/ReduceAsync)
// — mixing in plain Read/Set during a drain is a data race. Outside
// drains the map behaves as usual; the BSP sync phases provide the
// happens-before edges.
type AsyncNodeHandle struct {
	m *fullMap[graph.NodeID]
}

// AsyncNode returns the async apply handle for m, or false when m is not
// the Full variant.
func AsyncNode(m Map[graph.NodeID]) (*AsyncNodeHandle, bool) {
	fm, ok := m.(*fullMap[graph.NodeID])
	if !ok {
		return nil, false
	}
	return &AsyncNodeHandle{m: fm}, true
}

// masterSlot returns n's value slot as an atomically accessible *uint32,
// and its local ID, when this host owns n.
func (a *AsyncNodeHandle) masterSlot(n graph.NodeID) (p *uint32, local graph.NodeID, ok bool) {
	m := a.m
	if n >= m.masterLo && n < m.masterHi {
		i := n - m.masterLo
		return (*uint32)(&m.masters[i]), i, true
	}
	return nil, 0, false
}

// Load atomically reads n's value. ok is false when n is not materialized
// on this host (neither a master nor a cached request response) — the
// drain-safe analogue of Read's panic.
//
//kimbap:conflictfree
func (a *AsyncNodeHandle) Load(n graph.NodeID) (v graph.NodeID, ok bool) {
	if p, _, isMaster := a.masterSlot(n); isMaster {
		return graph.NodeID(atomic.LoadUint32(p)), true
	}
	// The request cache is written only during RequestSync (a BSP phase);
	// during a drain it is read-only, so the plain slot-table index is
	// safe — the same O(1) lookup Read uses (DESIGN.md §14), replacing
	// the binary search this path used to pay per miss.
	m := a.m
	if m.cacheSlot != nil {
		if s := m.cacheSlot[n]; s != 0 {
			return m.cacheVals[s-1], true
		}
	}
	return 0, false
}

// ReduceAsync merges v into n's value. When this host owns n the merge is
// an in-place CAS loop (applied reports this) and changed reports whether
// the stored value moved — the caller's signal to activate n's local ID.
// Otherwise the merge falls back to the buffered thread-local reduce
// (applied=false) and surfaces at the next ReduceSync.
//
//kimbap:conflictfree
func (a *AsyncNodeHandle) ReduceAsync(tid int, n, v graph.NodeID) (local graph.NodeID, applied, changed bool) {
	m := a.m
	p, local, isMaster := a.masterSlot(n)
	if !isMaster {
		m.Reduce(tid, n, v)
		return 0, false, false
	}
	for {
		old := atomic.LoadUint32(p)
		nv := uint32(m.op.Combine(graph.NodeID(old), v))
		if nv == old {
			return local, true, false
		}
		if atomic.CompareAndSwapUint32(p, old, nv) {
			break
		}
	}
	m.updated.Store(true)
	m.masterDirty.Set(int(local))
	return local, true, true
}
