// Scatter shapes: statement-level //kimbap:conflictfree annotations on
// par.Static and par.Dynamic dispatches. Every write lands in a slot no
// other worker touches — through an injective index, or inside a range
// reserved for its node — so the closures need no lock. (A lock on the
// scatter path voids the annotation: see scatterViaLocked in a.go.)
package conflictfree

import "kimbap/internal/par"

// tableScatterClean has the shape of the partitioner's global→local table
// fill, tab[ids[l]] = l+1: ids holds distinct global IDs, so every write
// lands in a distinct slot.
func tableScatterClean(tab []int32, ids []uint32) {
	//kimbap:conflictfree
	par.Static(2, len(ids), func(_, lo, hi int) {
		for l := lo; l < hi; l++ {
			tab[ids[l]] = int32(l) + 1
		}
	})
}

// csrScatterClean has the shape of Build's cursor scatter: node v's edges
// land in its own reserved offset range, disjoint across workers.
func csrScatterClean(offsets []int64, srcDsts, dsts []uint32) {
	//kimbap:conflictfree
	par.Dynamic(2, len(offsets)-1, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for at := offsets[v]; at < offsets[v+1]; at++ {
				dsts[at] = srcDsts[at]
			}
		}
	})
}
