package npm

import (
	"fmt"

	"kimbap/internal/graph"
	"kimbap/internal/partition"
)

// LocalView addresses a map by host-local ID (masters at [0, NumMasters),
// mirrors above), the ID space an operator body already iterates: local
// CSR sources and destinations. On the Full variant it is GAR's dense
// layout seen directly (§4.2): Value indexes the master vector, or the
// mirror array while mirrors are pinned, and Reduce goes straight to the
// calling thread's dense reduce buffer — no global-ID round trip through
// the partition's translation tables and no interface dispatch per edge.
// On every other variant, and for mirrors of an unpinned Full map, it
// falls back to Read/Reduce on the proxy's global ID, so an operator body
// written against the view runs unchanged on every variant.
//
// A view holds no values of its own: Value(l) always equals
// Read(GlobalID(l)) — read counters included — and Reduce(tid, l, v)
// always equals Reduce(tid, GlobalID(l), v), so the phase discipline of
// the underlying map applies to it unchanged (the phaseorder analyzer
// resolves `lv := npm.Local(m)` to m).
type LocalView[V comparable] struct {
	m    Map[V]
	hp   *partition.HostPartition
	full *fullMap[V] // nil: every access takes the global-ID fallback
	// masters aliases the Full map's master vector (allocated once, never
	// replaced) when reads are not counted: the one-compare fast path of
	// Value. Nil otherwise.
	masters []V
}

// Local returns the host-local view of m.
func Local[V comparable](m Map[V]) *LocalView[V] {
	switch x := m.(type) {
	case *fullMap[V]:
		lv := &LocalView[V]{m: m, hp: x.hp, full: x}
		if !x.trackReads {
			lv.masters = x.masters
		}
		return lv
	case *hashMap[V]:
		return &LocalView[V]{m: m, hp: x.hp}
	case *mcMap[V]:
		return &LocalView[V]{m: m, hp: x.hp}
	}
	panic(fmt.Sprintf("npm: Local of unknown map type %T", m))
}

// Value returns the property value of the local proxy with host-local ID
// l: Read(GlobalID(l)). An uncounted master read is inlined at the call
// site; everything else takes value.
func (lv *LocalView[V]) Value(l graph.NodeID) V {
	if int(l) < len(lv.masters) {
		return lv.masters[l]
	}
	return lv.value(l)
}

func (lv *LocalView[V]) value(l graph.NodeID) V {
	if m := lv.full; m != nil {
		nm := m.hp.NumMasters
		if int(l) < nm {
			if m.trackReads {
				m.readMaster.Add(1)
			}
			return m.masters[l]
		}
		if m.pinned {
			if m.trackReads {
				m.readRemote.Add(1)
			}
			return m.mirrors[int(l)-nm]
		}
	}
	return lv.m.Read(lv.hp.GlobalID(l))
}

// Reduce merges v into the property of the local proxy with host-local ID
// l: Reduce(tid, GlobalID(l), v).
func (lv *LocalView[V]) Reduce(tid int, l graph.NodeID, v V) {
	if m := lv.full; m != nil {
		m.denseFor(tid).reduce(l, v, m.op.Combine)
		return
	}
	lv.m.Reduce(tid, lv.hp.GlobalID(l), v)
}
