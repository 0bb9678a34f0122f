// ID shapes: the replay contract for code that assigns or ranks node IDs.
// A scatter through an injective index is worker-count invariant; a
// random tie-break breaks run-to-run identity.
package deterministic

import (
	"math/rand"

	"kimbap/internal/par"
)

// tableScatterClean mirrors the partitioner's global→local table fill:
// ids holds distinct global IDs, so tab[ids[l]] = l+1 writes every slot
// at most once, and a static range split makes the result worker-count
// invariant. Clean.
//
//kimbap:deterministic
func tableScatterClean(tab []int32, ids []uint32) {
	par.Static(2, len(ids), func(_, lo, hi int) {
		for l := lo; l < hi; l++ {
			tab[ids[l]] = int32(l) + 1
		}
	})
}

// tieBreakByRandDirty breaks equal-degree MIS priority ties with a random
// draw instead of graph.MISPriority's fixed bijection of the node ID.
//
//kimbap:deterministic
func tieBreakByRandDirty(a, b int) bool { // want `calls rand\.Intn`
	if a != b {
		return a < b
	}
	return rand.Intn(2) == 0
}
