package npm

import "kimbap/internal/graph"

// bucketedMap is the thread-private reduce map of the CF compute phase
// (Figure 7) for keys without a local dense slot — every key of SGR+CF, and
// the Full map's keys that are not local proxies (dense.go takes the rest)
// — internally partitioned into one localMap per combine thread's key range. Bucketing at Reduce time makes ReduceSync's combine pass
// work-linear: combine thread t drains exactly bucket t of every thread's
// map, instead of scanning all T maps and filtering by key range (which
// costs O(T x entries) total). Buckets cover disjoint key ranges, so the
// combine pass stays conflict free by construction.
type bucketedMap[V any] struct {
	buckets []*localMap[V]
	n       uint64 // global key-space size
}

func newBucketedMap[V any](buckets, numGlobal int) *bucketedMap[V] {
	m := &bucketedMap[V]{buckets: make([]*localMap[V], buckets), n: uint64(numGlobal)}
	for i := range m.buckets {
		m.buckets[i] = newLocalMap[V]()
	}
	return m
}

// rangeBucket returns which of `buckets` contiguous ranges over [0, n)
// holds key k. It is the exact inverse of the range split
// lo(t) = t*n/buckets used by the combine and gather passes: the unique t
// with lo(t) <= k < lo(t+1) is ((k+1)*buckets - 1) / n.
func rangeBucket(k graph.NodeID, buckets, n uint64) int {
	return int(((uint64(k)+1)*buckets - 1) / n)
}

// sectionLo returns where range bucket t starts over [0, n):
// lo(t) = t*n/buckets, the split rangeBucket inverts. Reduce payloads
// encode each section's keys as varint deltas from this base.
func sectionLo(t int, buckets, n uint64) uint64 {
	return uint64(t) * n / buckets
}

// Reduce merges v into k's entry in k's range bucket.
//
//kimbap:conflictfree
func (m *bucketedMap[V]) Reduce(k graph.NodeID, v V, op func(a, b V) V) {
	m.buckets[rangeBucket(k, uint64(len(m.buckets)), m.n)].Reduce(k, v, op)
}

// Len returns the total number of entries across buckets.
func (m *bucketedMap[V]) Len() int {
	total := 0
	for _, b := range m.buckets {
		total += b.Len()
	}
	return total
}

// Reset removes all entries, keeping each bucket's capacity.
func (m *bucketedMap[V]) Reset() {
	for _, b := range m.buckets {
		b.Reset()
	}
}

func (m *bucketedMap[V]) footprint(valSize int) int64 {
	var total int64
	for _, b := range m.buckets {
		total += b.footprint(valSize)
	}
	return total
}
