package npm

import "kimbap/internal/graph"

// Memory-footprint estimation. The paper compares max RSS across systems:
// Kimbap's thread-local maps cost ~10% extra memory vs Vite for LV, and
// about the same as Gluon for CC (§6.2). Each variant reports the bytes
// its data structures occupy so experiments can reproduce that comparison
// without OS-level RSS sampling (which would measure the whole simulated
// cluster at once).

// MemoryReporter is implemented by all map variants.
type MemoryReporter interface {
	// MemoryFootprint returns the approximate bytes held by the map's
	// value storage, caches, thread-local maps, and request state.
	MemoryFootprint() int64
}

// FootprintOf returns m's memory footprint, or 0 if it does not report.
func FootprintOf(m any) int64 {
	if r, ok := m.(MemoryReporter); ok {
		return r.MemoryFootprint()
	}
	return 0
}

func (m *localMap[V]) footprint(valSize int) int64 {
	// keys + vals arrays at capacity, plus the used list.
	return int64(len(m.keys))*int64(4+valSize) + int64(cap(m.used))*4
}

func (s *shardedMap[V]) footprint(valSize int) int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.m.footprint(valSize)
		sh.mu.Unlock()
	}
	return total
}

// MemoryFootprint implements MemoryReporter.
func (m *fullMap[V]) MemoryFootprint() int64 {
	vs := m.codec.Size()
	total := int64(len(m.masters)) * int64(vs)     // master vector
	total += int64(len(m.mirrors)) * int64(vs)     // pinned mirrors
	total += int64(len(m.cacheKeys)) * int64(4+vs) // remote cache
	total += int64(len(m.cacheSlot)) * 4           // dense cache slot table (§14)
	total += int64(m.hp.NumGlobalNodes()+7) / 8    // request bitset
	total += int64(len(m.masters)+7) / 8           // dirty bitset
	// Partition-side ID translation: the host's dense global→local table.
	// Charged to the Full variant, which is the one whose hot paths index
	// it.
	total += m.hp.TranslationFootprint()
	for _, b := range m.dense {
		if b != nil {
			total += b.footprint(vs)
		}
	}
	for _, t := range m.tl {
		total += t.footprint(vs)
	}
	for _, t := range m.combined {
		total += t.footprint(vs)
	}
	// Persistent sync-phase buffers (reused across rounds).
	total += m.rf.footprint()
	for g := range m.bcastBufs {
		for _, b := range m.bcastBufs[g] {
			total += int64(cap(b))
		}
	}
	if m.frontier != nil {
		total += m.frontier.MemoryFootprint()
	}
	return total
}

// MemoryFootprint implements MemoryReporter.
func (m *hashMap[V]) MemoryFootprint() int64 {
	vs := m.codec.Size()
	total := m.owned.footprint(vs)
	total += m.cache.footprint(vs)
	total += int64(m.hp.NumGlobalNodes()+7) / 8
	total += int64(len(m.pinnedIDs)) * 4
	for _, t := range m.tl {
		total += t.footprint(vs)
	}
	for _, t := range m.combined {
		total += t.footprint(vs)
	}
	if m.sharedPartial != nil {
		total += m.sharedPartial.footprint(vs)
	}
	// Persistent sync-phase buffers (reused across rounds).
	total += m.rf.footprint()
	for g := range m.reqBufs {
		for _, b := range m.reqBufs[g] {
			total += int64(cap(b))
		}
		for _, b := range m.respBufs[g] {
			total += int64(cap(b))
		}
	}
	return total
}

// MemoryFootprint implements MemoryReporter. The external store's memory
// is not attributed to the map (the paper treats Memcached's store size as
// a fixed server budget); only client-side state counts.
func (m *mcMap[V]) MemoryFootprint() int64 {
	vs := m.codec.Size()
	total := m.cache.footprint(vs)
	total += int64(m.hp.NumGlobalNodes()+7) / 8
	total += int64(len(m.pinnedIDs)) * 4
	return total
}

var (
	_ MemoryReporter = (*fullMap[graph.NodeID])(nil)
	_ MemoryReporter = (*hashMap[graph.NodeID])(nil)
	_ MemoryReporter = (*mcMap[graph.NodeID])(nil)
)
