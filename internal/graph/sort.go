package graph

// In-place tandem sort of adjacency columns. The old implementation
// allocated an index permutation plus two copy-out slices per node — three
// allocations and a sort.Slice closure for every node in the graph. This
// one sorts the two columns directly: quicksort with a median-of-three
// Hoare partition, recursing into the smaller side (O(log n) stack on any
// input) and finishing short runs with insertion sort. Both the serial and
// parallel builds call it, and the (dst, weight) order is total up to fully
// equal entries, so the sorted columns are unique — the root of the
// bit-identity guarantee across worker counts.

// dwLess orders adjacency entries by destination, then weight.
func dwLess(d1 NodeID, w1 float64, d2 NodeID, w2 float64) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return w1 < w2
}

// dwSorted reports whether d and w are already in (dst, weight) order.
func dwSorted(d []NodeID, w []float64) bool {
	for i := 1; i < len(d); i++ {
		if dwLess(d[i], w[i], d[i-1], w[i-1]) {
			return false
		}
	}
	return true
}

// sortDstWeight sorts d and w in tandem by (dst, weight) ascending.
func sortDstWeight(d []NodeID, w []float64) {
	for len(d) > 16 {
		p := partitionDstWeight(d, w)
		if p+1 <= len(d)-(p+1) {
			sortDstWeight(d[:p+1], w[:p+1])
			d, w = d[p+1:], w[p+1:]
		} else {
			sortDstWeight(d[p+1:], w[p+1:])
			d, w = d[:p+1], w[:p+1]
		}
	}
	for i := 1; i < len(d); i++ {
		dv, wv := d[i], w[i]
		j := i - 1
		for j >= 0 && dwLess(dv, wv, d[j], w[j]) {
			d[j+1], w[j+1] = d[j], w[j]
			j--
		}
		d[j+1], w[j+1] = dv, wv
	}
}

// partitionDstWeight Hoare-partitions around a median-of-three pivot,
// returning p such that every entry of [0, p] is <= every entry of
// (p, len); both sides are non-empty for len >= 2.
func partitionDstWeight(d []NodeID, w []float64) int {
	mid, last := len(d)/2, len(d)-1
	if dwLess(d[mid], w[mid], d[0], w[0]) {
		d[0], d[mid] = d[mid], d[0]
		w[0], w[mid] = w[mid], w[0]
	}
	if dwLess(d[last], w[last], d[0], w[0]) {
		d[0], d[last] = d[last], d[0]
		w[0], w[last] = w[last], w[0]
	}
	if dwLess(d[last], w[last], d[mid], w[mid]) {
		d[mid], d[last] = d[last], d[mid]
		w[mid], w[last] = w[last], w[mid]
	}
	pd, pw := d[mid], w[mid]
	i, j := 0, last
	for {
		for dwLess(d[i], w[i], pd, pw) {
			i++
		}
		for dwLess(pd, pw, d[j], w[j]) {
			j--
		}
		if i >= j {
			return j
		}
		d[i], d[j] = d[j], d[i]
		w[i], w[j] = w[j], w[i]
		i++
		j--
	}
}
