package npm

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/par"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// MCStore is the external key-value cluster backing the MC variant. It is
// satisfied by *kvstore.Cluster.
type MCStore interface {
	Get(host int, key string) kvstore.Value
	MGet(host int, keys []string) []kvstore.Value
	Set(host int, key string, value []byte)
	Reduce(host int, key string, value []byte,
		op func(current, incoming []byte) []byte) bool
}

// mcMap is the Memcached-backed ablation variant (§6.4): no SGR, no CF, no
// GAR. Values live in the external store under string keys; reductions are
// immediate get/combine/CAS retry loops against the store (ReduceSync is a
// no-op barrier, as in the paper); reads are served from an mget-filled
// cache with a direct Get fallback.
type mcMap[V comparable] struct {
	h      *runtime.Host
	hp     *partition.HostPartition
	op     ReduceOp[V]
	codec  Codec[V]
	store  MCStore
	prefix string

	reqBits *par.Bitset
	cache   *localMap[V]

	pinned    bool
	pinnedIDs []graph.NodeID

	updated       atomic.Bool
	updatedGlobal bool

	trackReads bool
	readMaster atomic.Int64
	readRemote atomic.Int64
}

func newMCMap[V comparable](opts Options[V]) *mcMap[V] {
	if opts.Store == nil {
		panic("npm: MC variant requires Options.Store")
	}
	h := opts.Host
	return &mcMap[V]{
		h:          h,
		hp:         h.HP,
		op:         opts.Op,
		codec:      opts.Codec,
		store:      opts.Store,
		prefix:     "m" + strconv.FormatInt(h.NextMapID(), 10) + ":",
		reqBits:    par.NewBitset(h.HP.NumGlobalNodes()),
		cache:      newLocalMap[V](),
		trackReads: opts.TrackReads,
	}
}

// keyFor builds the store key. String keys (vs Kimbap's integer node IDs)
// are one of the Memcached overheads the paper calls out.
func (m *mcMap[V]) keyFor(n graph.NodeID) string {
	return m.prefix + strconv.FormatUint(uint64(n), 10)
}

func (m *mcMap[V]) decode(data []byte) V {
	v, _ := m.codec.Read(data)
	return v
}

// Read implements Map: cache hit, else a synchronous store Get.
func (m *mcMap[V]) Read(n graph.NodeID) V {
	if m.trackReads {
		lo, hi := m.hp.MasterRangeGlobal()
		if n >= lo && n < hi {
			m.readMaster.Add(1)
		} else {
			m.readRemote.Add(1)
		}
	}
	if v, ok := m.cache.Get(n); ok {
		return v
	}
	got := m.store.Get(m.h.Rank, m.keyFor(n))
	if !got.OK {
		panic(fmt.Sprintf("npm: host %d read of uninitialized node %d", m.h.Rank, n))
	}
	return m.decode(got.Data)
}

// Reduce implements Map: an immediate distributed CAS loop, the paper's
// Memcached reduction. tid is unused — there is nothing thread-local.
func (m *mcMap[V]) Reduce(_ int, n graph.NodeID, v V) {
	enc := m.codec.Append(nil, v)
	changed := m.store.Reduce(m.h.Rank, m.keyFor(n), enc,
		func(current, incoming []byte) []byte {
			a := m.decode(current)
			b := m.decode(incoming)
			return m.codec.Append(nil, m.op.Combine(a, b))
		})
	if changed {
		m.updated.Store(true)
	}
}

// Set implements Map: write-through. Concurrent Sets of the same node pick
// an arbitrary winner, which the API contract allows.
func (m *mcMap[V]) Set(n graph.NodeID, v V) {
	m.store.Set(m.h.Rank, m.keyFor(n), m.codec.Append(nil, v))
}

// InitSync implements Map: Sets are write-through, so only a barrier is
// needed to make them globally visible before the first round.
func (m *mcMap[V]) InitSync() {
	m.h.TimeComm(func() { comm.Barrier(m.h.EP) })
}

// Request implements Map.
func (m *mcMap[V]) Request(n graph.NodeID) {
	if m.pinned {
		if _, ok := m.cache.Get(n); ok {
			return
		}
	}
	m.reqBits.Set(int(n))
}

// RequestSync implements Map: one mget for all requested keys.
func (m *mcMap[V]) RequestSync() {
	m.h.TimeRequest(func() {
		var ids []graph.NodeID
		m.reqBits.ForEachSet(func(i int) { ids = append(ids, graph.NodeID(i)) })
		m.reqBits.Clear()
		// Requests within a round accumulate; the cache is invalidated at
		// ReduceSync, the point where cached values become stale.
		m.mget(ids)
		comm.Barrier(m.h.EP) // keep BSP phases aligned across hosts
	})
}

func (m *mcMap[V]) mget(ids []graph.NodeID) {
	if len(ids) == 0 {
		return
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = m.keyFor(id)
	}
	vals := m.store.MGet(m.h.Rank, keys)
	for i, v := range vals {
		if !v.OK {
			panic(fmt.Sprintf("npm: host %d mget of uninitialized node %d", m.h.Rank, ids[i]))
		}
		m.cache.Set(ids[i], m.decode(v.Data))
	}
}

// ReduceSync implements Map: reductions already happened against the
// store, so this is just a barrier plus cache invalidation.
func (m *mcMap[V]) ReduceSync() {
	m.h.TimeComm(func() {
		comm.Barrier(m.h.EP)
		// All cached values are stale; PM programs re-fetch the pinned
		// set in the BroadcastSync that follows.
		m.cache.Reset()
	})
}

// PinMirrors implements Map: mget all of this partition's mirrors.
func (m *mcMap[V]) PinMirrors() {
	if m.pinned {
		return
	}
	n := m.hp.NumLocal()
	m.pinnedIDs = make([]graph.NodeID, 0, n-m.hp.NumMasters)
	for l := m.hp.NumMasters; l < n; l++ {
		m.pinnedIDs = append(m.pinnedIDs, m.hp.GlobalID(graph.NodeID(l)))
	}
	sort.Slice(m.pinnedIDs, func(i, j int) bool { return m.pinnedIDs[i] < m.pinnedIDs[j] })
	m.h.TimeBroadcast(func() {
		m.mget(m.pinnedIDs)
		comm.Barrier(m.h.EP)
	})
	m.pinned = true
}

// BroadcastSync implements Map: refresh pinned values with another mget.
func (m *mcMap[V]) BroadcastSync() {
	if !m.pinned {
		panic("npm: BroadcastSync without PinMirrors")
	}
	m.h.TimeBroadcast(func() {
		m.mget(m.pinnedIDs)
		comm.Barrier(m.h.EP)
	})
}

// UnpinMirrors implements Map.
func (m *mcMap[V]) UnpinMirrors() {
	m.pinned = false
	m.pinnedIDs = nil
	m.cache.Reset()
}

// ResetUpdated implements Map.
func (m *mcMap[V]) ResetUpdated() { m.updated.Store(false) }

// IsUpdated implements Map.
func (m *mcMap[V]) IsUpdated() bool {
	m.h.TimeComm(func() {
		m.updatedGlobal = comm.AllReduceBool(m.h.EP, m.updated.Load())
	})
	return m.updatedGlobal
}

// ReadStats implements Map.
func (m *mcMap[V]) ReadStats() (master, remote int64) {
	return m.readMaster.Load(), m.readRemote.Load()
}
