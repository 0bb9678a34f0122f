package npm

import (
	"fmt"

	"kimbap/internal/graph"
)

// Pull-round access: the direction-optimized dense path (Beamer-style
// bottom-up) reads in-neighbors' values and combines into the reading
// vertex's OWN master slot. Ownership makes the writes conflict free —
// no atomics, no thread-local reduce maps — and because no host ever
// produces a value for a remote master, the round needs no ReduceSync at
// all: masters are updated in place and the round ends with a broadcast
// only.
//
// That is legal only under two preconditions, both checked here:
//
//  1. Every in-edge of every master is stored at that master's owner
//     (partition.HostPartition.PullEdgesComplete, a structural property
//     of the partition — IEC, or vacuously any single-host run). The
//     caller checks this before choosing pull; Pull itself only gates on
//     the map variant.
//  2. Pinned mirrors reflect the current master values ("mirror
//     freshness"): the values a pull body reads through mirrors must be
//     the ones the last collective published. The map tracks this with
//     mirrorsFresh (set by broadcasts, cleared by ReduceSync/InitSync);
//     BeginPullRound panics on violation.
//
// Reads during the round go through a round-start snapshot of the master
// vector, giving Jacobi semantics: the result is independent of vertex
// scan order and thread count, which is what makes pull rounds
// bit-identical to their push equivalents.

// PullHandle is the pull-round view of a fullMap. Obtain one with Pull;
// use it as: BeginPullRound, then Value/Apply from operator threads
// (via runtime.Host.ParForPull), then EndPullRound, then BroadcastSync
// on the underlying map.
type PullHandle[V comparable] struct {
	m *fullMap[V]
}

// Pull returns a pull-round handle for m, or false when the map variant
// does not support pull rounds (only the full map does — the baseline
// variants lack the dense master vector and pinned mirrors the path
// needs). Callers fall back to push on false, which is always legal.
func Pull[V comparable](m Map[V]) (*PullHandle[V], bool) {
	fm, ok := m.(*fullMap[V])
	if !ok {
		return nil, false
	}
	return &PullHandle[V]{m: fm}, true
}

// BeginPullRound starts a pull round: it verifies mirror freshness and
// snapshots the master vector. Call from the program goroutine at the
// round boundary, before dispatching the pull body.
func (p *PullHandle[V]) BeginPullRound() { p.m.beginPullRound() }

// EndPullRound closes the round. The map's masters now lead its mirrors;
// publish them with BroadcastSync before the next pull round.
func (p *PullHandle[V]) EndPullRound() { p.m.endPullRound() }

// Value returns the round-start value of the local proxy with host-local
// ID local: masters read the BeginPullRound snapshot, mirrors read the
// pinned mirror array (unchanged during the round — only a broadcast
// writes it). Panics for an unmaterialized proxy, which under a
// pull-complete partition cannot be an in-neighbor of a master.
//
//kimbap:conflictfree
func (p *PullHandle[V]) Value(local graph.NodeID) V { return p.m.pullValue(local) }

// Apply combines v into the master with master-local ID master (== its
// host-local ID), reporting whether the value changed. Conflict free by
// ownership: the pull body for a master is the only writer of its slot.
// Effective applies feed IsUpdated, the broadcast dirty set, and the
// attached frontier, exactly like a push-side reduce landing on a master.
//
//kimbap:conflictfree
func (p *PullHandle[V]) Apply(master graph.NodeID, v V) bool { return p.m.pullApply(master, v) }

// MirrorsFresh reports whether the map's pinned mirrors reflect its
// current master values (telemetry/testing; BeginPullRound enforces it).
func (p *PullHandle[V]) MirrorsFresh() bool { return p.m.mirrorsFresh }

func (m *fullMap[V]) beginPullRound() {
	if m.pinned && !m.mirrorsFresh {
		panic(fmt.Sprintf("npm: host %d pull round with stale mirrors "+
			"(ReduceSync or InitSync since the last BroadcastSync; broadcast before pulling)",
			m.h.Rank))
	}
	n := len(m.masters)
	if cap(m.pullSnap) < n {
		m.pullSnap = make([]V, n)
	}
	m.pullSnap = m.pullSnap[:n]
	copy(m.pullSnap, m.masters)
	// The round is about to move masters ahead of the mirrors.
	m.mirrorsFresh = false
}

func (m *fullMap[V]) endPullRound() {}

//kimbap:conflictfree
func (m *fullMap[V]) pullValue(local graph.NodeID) V {
	if int(local) < m.hp.NumMasters {
		return m.pullSnap[local]
	}
	if m.pinned {
		return m.mirrors[int(local)-m.hp.NumMasters]
	}
	panic(fmt.Sprintf("npm: host %d pull read of unmaterialized local proxy %d (unpinned mirrors?)",
		m.h.Rank, local))
}

//kimbap:conflictfree
func (m *fullMap[V]) pullApply(master graph.NodeID, v V) bool {
	if !m.combineMaster(master, v) {
		return false
	}
	m.markMaster(master)
	return true
}
