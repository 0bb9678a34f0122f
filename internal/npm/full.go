package npm

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/par"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// fullMap is the Kimbap node-property map with all three runtime
// optimizations from §4.2:
//
//   - GAR: master properties live in a dense vector indexed by
//     (global - masterLo); requested remote properties are read through
//     the dense cacheSlot table, one index per Read (Figure 6).
//   - CF: Reduce goes to per-thread buffers — dense over local proxy IDs
//     (dense.go), hash maps only for keys that are not local proxies;
//     ReduceSync combines them with a disjoint key-range pass per thread,
//     so no locks or CAS are ever needed (Figure 7).
//   - SGR: one partial-aggregate message per host pair per round; partial
//     values are gathered and reduced onto master values by key-range
//     parallel loops.
//
// Pinned mirrors (PM) additionally materialize mirror proxies and replace
// request/response traffic with one-way positional broadcasts carrying a
// dirty bitmask and only the changed values (Gluon's metadata
// minimization, exploiting the partition's temporal invariance).
type fullMap[V comparable] struct {
	h     *runtime.Host
	hp    *partition.HostPartition
	op    ReduceOp[V]
	codec Codec[V]

	masterLo graph.NodeID
	masterHi graph.NodeID
	masters  []V
	// masterDirty tracks masters changed since the last broadcast, indexed
	// by master-local ID.
	masterDirty *par.Bitset

	pinned  bool
	mirrors []V // indexed by (local - NumMasters) when pinned

	reqBits   *par.Bitset    // global IDs requested this round
	cacheKeys []graph.NodeID // sorted requested remote IDs
	cacheVals []V
	// cacheSlot is the dense global→cache translation table (DESIGN.md
	// §14): cacheSlot[g] = index into cacheVals + 1, 0 for uncached. It
	// replaces the per-Read binary search over cacheKeys with one array
	// index. Allocated lazily on the first non-empty cache (request-free
	// algorithms never pay for it) and retained across rounds — the
	// ReduceSync cache drop zeroes only the previously cached keys'
	// slots, O(cache) not O(n).
	cacheSlot []int32

	// Per-thread reduce buffers. dense[t] takes thread t's reduces to local
	// proxies and is allocated on that thread's first such reduce, so maps
	// that only Set and Read pay nothing for it. tl[t] takes the keys that
	// are not local proxies here — all owned by other hosts — bucketed by
	// global combine range; combined[t] is combine thread t's merge of them.
	dense    []*denseReduce[V]
	tl       []*bucketedMap[V]
	combined []*localMap[V]

	// Persistent sync-phase buffers, reused across BSP rounds so warm
	// ReduceSync/BroadcastSync rounds allocate nothing (see the comm
	// package's buffer-ownership contract). The reduce frame's sections
	// cover each destination's master range.
	rf        *reduceFrame[V]
	bcastBufs [2][][]byte // per-dest broadcast payloads, double-buffered
	bcastGen  int
	recvIn    [][]byte // receive slice for the exchanges (one round at a time)

	// frontier, when attached via SetFrontier, receives next-round
	// activations for every local proxy whose value changes during a sync
	// phase: masters from the combine and gather passes, pinned mirrors
	// from broadcast decode. Activation is one atomic bit set (conflict
	// free) — a single-writer word store in the dense combine, which owns
	// its words (combineDense), and a CAS elsewhere.
	frontier *runtime.Frontier

	// Broadcast encode state for the overlapped scatter
	// (comm.ExchangeFunc): the closure is bound once at construction so hot
	// rounds allocate nothing; bcastOut points it at the current round's
	// double-buffer generation.
	encodeBcast func(to int) []byte
	bcastOut    [][]byte
	bcastFull   bool

	updated       atomic.Bool
	updatedGlobal bool

	trackReads bool
	readMaster atomic.Int64
	readRemote atomic.Int64
}

func newFullMap[V comparable](opts Options[V]) *fullMap[V] {
	h := opts.Host
	lo, hi := h.HP.MasterRangeGlobal()
	m := &fullMap[V]{
		h:           h,
		hp:          h.HP,
		op:          opts.Op,
		codec:       opts.Codec,
		masterLo:    lo,
		masterHi:    hi,
		masters:     make([]V, hi-lo),
		masterDirty: par.NewBitset(int(hi - lo)),
		reqBits:     par.NewBitset(h.HP.NumGlobalNodes()),
		dense:       make([]*denseReduce[V], h.Threads),
		tl:          make([]*bucketedMap[V], h.Threads),
		combined:    make([]*localMap[V], h.Threads),
	}
	m.encodeBcast = m.bcastPayload
	m.trackReads = opts.TrackReads
	numGlobal := h.HP.NumGlobalNodes()
	for t := range m.tl {
		m.tl[t] = newBucketedMap[V](h.Threads, numGlobal)
		m.combined[t] = newLocalMap[V]()
	}
	numHosts := h.HP.NumHosts()
	m.rf = newReduceFrame(m.codec, h.Rank, h.Threads, numHosts,
		func(o int) (graph.NodeID, uint64) {
			olo, ohi := h.HP.MasterRangeOf(o)
			return olo, uint64(ohi - olo)
		})
	for g := range m.bcastBufs {
		m.bcastBufs[g] = make([][]byte, numHosts)
	}
	m.recvIn = make([][]byte, numHosts)
	return m
}

// SetFrontier attaches a frontier whose *next* set receives an activation
// for every local proxy whose value changes during ReduceSync (masters) or
// a broadcast (pinned mirrors). Activations index the host-local ID space:
// masters at [0, NumMasters), mirrors above. Pass nil to detach.
func (m *fullMap[V]) SetFrontier(f *runtime.Frontier) { m.frontier = f }

// Read implements Map.
func (m *fullMap[V]) Read(n graph.NodeID) V {
	if n >= m.masterLo && n < m.masterHi {
		if m.trackReads {
			m.readMaster.Add(1)
		}
		return m.masters[n-m.masterLo]
	}
	if m.pinned {
		if local, ok := m.hp.LocalID(n); ok && !m.hp.IsMaster(local) {
			if m.trackReads {
				m.readRemote.Add(1)
			}
			return m.mirrors[int(local)-m.hp.NumMasters]
		}
	}
	if m.cacheSlot != nil {
		if s := m.cacheSlot[n]; s != 0 {
			if m.trackReads {
				m.readRemote.Add(1)
			}
			return m.cacheVals[s-1]
		}
	}
	panic(fmt.Sprintf("npm: host %d read of unmaterialized node %d (missing Request?)",
		m.h.Rank, n))
}

// Reduce implements Map: the CF compute-phase reduce into the calling
// thread's private buffer (Figure 7 left side) — the dense one when n is a
// local proxy, the hash map otherwise.
//
//kimbap:conflictfree
func (m *fullMap[V]) Reduce(tid int, n graph.NodeID, v V) {
	l := n - m.masterLo
	if n < m.masterLo || n >= m.masterHi {
		var ok bool
		if l, ok = m.hp.LocalID(n); !ok {
			m.tl[tid].Reduce(n, v, m.op.Combine)
			return
		}
	}
	m.denseFor(tid).reduce(l, v, m.op.Combine)
}

// denseFor returns thread tid's dense buffer, allocating it on the
// thread's first reduce to a local proxy. The allocation stays out of line
// (allocDense), so denseFor and the buffer's reduce inline into Reduce and
// the local view's Reduce: an operator's reduce to a local proxy is one
// call, plus the op's.
//
//kimbap:conflictfree
func (m *fullMap[V]) denseFor(tid int) *denseReduce[V] {
	if b := m.dense[tid]; b != nil {
		return b
	}
	return m.allocDense(tid)
}

//go:noinline
func (m *fullMap[V]) allocDense(tid int) *denseReduce[V] {
	m.dense[tid] = newDenseReduce[V](m.hp.NumLocal(), m.h.Threads)
	return m.dense[tid]
}

// Set implements Map.
func (m *fullMap[V]) Set(n graph.NodeID, v V) {
	if n >= m.masterLo && n < m.masterHi {
		m.masters[n-m.masterLo] = v
		return
	}
	if m.pinned {
		if local, ok := m.hp.LocalID(n); ok && !m.hp.IsMaster(local) {
			m.mirrors[int(local)-m.hp.NumMasters] = v
		}
	}
}

// InitSync implements Map. GAR sets master values in place, so there is
// nothing to publish.
func (m *fullMap[V]) InitSync() {}

// Request implements Map.
func (m *fullMap[V]) Request(n graph.NodeID) {
	if n >= m.masterLo && n < m.masterHi {
		return // master: always materialized
	}
	if m.pinned {
		if local, ok := m.hp.LocalID(n); ok && !m.hp.IsMaster(local) {
			return // pinned mirror: kept fresh by broadcasts
		}
	}
	m.reqBits.Set(int(n))
}

// RequestSync implements Map (§4.1 request-sync phase).
func (m *fullMap[V]) RequestSync() {
	m.h.TimeRequest(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank

		// Drain the request bitset into per-owner ID lists. ForEachSet
		// ascends and owner ranges ascend, so each list is sorted and the
		// host-order concatenation of all lists is globally sorted.
		reqIDs := make([][]graph.NodeID, numHosts)
		m.reqBits.ForEachSet(func(i int) {
			o := m.hp.Owner(graph.NodeID(i))
			reqIDs[o] = append(reqIDs[o], graph.NodeID(i))
		})
		m.reqBits.Clear()

		// One request message per peer: the ID list, delta-varint encoded
		// — the lists are sorted, so deltas are small.
		out := make([][]byte, numHosts)
		for o, ids := range reqIDs {
			if o == self || len(ids) == 0 {
				continue
			}
			out[o] = appendIDList(make([]byte, 0, 4*len(ids)), ids)
		}
		in := comm.Exchange(m.h.EP, comm.TagRequest, out)

		// Serve incoming requests positionally: the response carries only
		// values, in the requester's ID order.
		resp := make([][]byte, numHosts)
		for o := 0; o < numHosts; o++ {
			if o == self {
				continue
			}
			buf := make([]byte, 0, len(in[o])/4*m.codec.Size())
			dec := idListDecoder{b: in[o]}
			for id, ok := dec.next(); ok; id, ok = dec.next() {
				buf = m.codec.Append(buf, m.masters[id-m.masterLo])
			}
			resp[o] = buf
		}
		got := comm.Exchange(m.h.EP, comm.TagResponse, resp)

		// Materialize the remote cache: keys are our concatenated request
		// lists (sorted by construction), values decode positionally.
		total := 0
		for o, ids := range reqIDs {
			if o != self {
				total += len(ids)
			}
		}
		newKeys := make([]graph.NodeID, 0, total)
		newVals := make([]V, 0, total)
		for o := 0; o < numHosts; o++ {
			if o == self {
				continue
			}
			payload := got[o]
			for _, id := range reqIDs[o] {
				var v V
				v, payload = m.codec.Read(payload)
				newKeys = append(newKeys, id)
				newVals = append(newVals, v)
			}
		}
		// Successive RequestSyncs within one round accumulate: merge the
		// fresh entries with any already-cached ones (both sorted). Fresh
		// values win on overlap. The cache is dropped at ReduceSync.
		m.mergeCache(newKeys, newVals)
	})
}

// mergeCache merges sorted (keys, vals) into the sorted remote cache,
// preferring the new values on duplicate keys, then refreshes the dense
// slot table. The merged key set is a superset of the old one, so
// rewriting every merged key's slot also overwrites all stale slots.
func (m *fullMap[V]) mergeCache(keys []graph.NodeID, vals []V) {
	defer m.rebuildCacheSlots()
	if len(m.cacheKeys) == 0 {
		m.cacheKeys, m.cacheVals = keys, vals
		return
	}
	if len(keys) == 0 {
		return
	}
	mk := make([]graph.NodeID, 0, len(m.cacheKeys)+len(keys))
	mv := make([]V, 0, len(m.cacheVals)+len(vals))
	i, j := 0, 0
	for i < len(m.cacheKeys) && j < len(keys) {
		switch {
		case m.cacheKeys[i] < keys[j]:
			mk = append(mk, m.cacheKeys[i])
			mv = append(mv, m.cacheVals[i])
			i++
		case m.cacheKeys[i] > keys[j]:
			mk = append(mk, keys[j])
			mv = append(mv, vals[j])
			j++
		default:
			mk = append(mk, keys[j])
			mv = append(mv, vals[j])
			i++
			j++
		}
	}
	mk = append(mk, m.cacheKeys[i:]...)
	mv = append(mv, m.cacheVals[i:]...)
	mk = append(mk, keys[j:]...)
	mv = append(mv, vals[j:]...)
	m.cacheKeys, m.cacheVals = mk, mv
}

// rebuildCacheSlots points the dense slot table at the current cache
// arrays. Runs once per RequestSync, after which every Read is a single
// index — the sort.Search this table replaced was on
// the per-access hot path.
func (m *fullMap[V]) rebuildCacheSlots() {
	if len(m.cacheKeys) == 0 {
		return
	}
	if m.cacheSlot == nil {
		m.cacheSlot = make([]int32, m.hp.NumGlobalNodes())
	}
	for i, k := range m.cacheKeys {
		m.cacheSlot[k] = int32(i) + 1
	}
}

// ReduceSync implements Map (§4.1 reduce-sync phase with the Figure 7
// conflict-free combine): disjoint key ranges make the combine, apply,
// and gather-reduce passes lock free end to end, and range bucketing makes
// them work-linear — no pass visits an entry or payload byte more than
// once.
//
//kimbap:conflictfree
func (m *fullMap[V]) ReduceSync() {
	m.h.TimeComm(func() {
		threads := m.h.Threads
		acc := m.accumulator()

		// Combine pass (conflict free by construction: thread t owns range
		// t of both key spaces, and no two threads touch the same key).
		// Each surviving entry not owned here is encoded once, into the
		// cell addressed by (owner host, owner's gather-thread range), so
		// receivers hand each section to exactly one gather thread.
		m.h.ParFor(threads, func(_, t int) {
			m.rf.resetCells(t)
			if acc != nil {
				m.combineDense(acc, t)
			}
			// Keys that are not local proxies: thread t owns global key
			// range [t*N/T, (t+1)*N/T), exactly bucket t of every hash
			// map, so it drains those buckets without scanning the rest.
			// None is owned here (a master is a local proxy).
			out := m.combined[t]
			out.Reset()
			for _, src := range m.tl {
				src.buckets[t].ForEach(func(k graph.NodeID, v V) {
					out.Reduce(k, v, m.op.Combine)
				})
			}
			out.ForEach(func(k graph.NodeID, v V) {
				m.rf.add(t, m.hp.Owner(k), k, v)
			})
		})
		for _, t := range m.tl {
			t.Reset()
		}

		// Scatter: one message per host pair, with compute/comm overlap —
		// ExchangeFunc assembles destination o's payload and hands it to
		// Send before destination o+1's encode starts, so each frame is in
		// flight while the next is still being built. The payload framing
		// lives in the reduce frame (wire.go).
		in := m.rf.exchange(m.h.EP, m.recvIn)

		// Gather-reduce: gather thread t decodes exactly the sections the
		// senders addressed to its master range — each received byte is
		// decoded once, by one thread, with no range filtering.
		m.h.ParFor(threads, func(_, t int) {
			for _, payload := range in {
				r := m.rf.section(payload, t)
				for k, v, ok := r.next(); ok; k, v, ok = r.next() {
					m.applyToMaster(k, v)
				}
			}
		})

		// Cached remote properties are now stale (§4.1): drop them. The
		// slot table is cleared key by key — O(cache entries), and the
		// allocation survives for the next round's rebuild.
		if m.cacheSlot != nil {
			for _, k := range m.cacheKeys {
				m.cacheSlot[k] = 0
			}
		}
		m.cacheKeys = nil
		m.cacheVals = nil
	})
}

// accumulator returns thread 0's dense buffer, the one every thread's dense
// partials fold into. It is allocated here when thread 0 never reduced to a
// local proxy but another thread did; nil means no dense partial exists
// this round.
func (m *fullMap[V]) accumulator() *denseReduce[V] {
	for _, b := range m.dense {
		if b != nil {
			return m.denseFor(0)
		}
	}
	return nil
}

// combineDense is combine thread t's pass over dense range t. It folds
// threads 1..T-1's partials into acc in ascending thread order, the order
// the hash combine folds in, so float sums match it bit for bit, then
// applies masters in place and encodes mirrors for their owners.
//
// Range t is whole 64-bit words of local-ID space, and master local IDs
// index masterDirty and the frontier directly, so thread t is the only
// writer of every masterDirty and frontier word its masters fall in: it ors
// each seen word's changed masters into both with one single-writer store
// (OrWordOwned, ActivateWordOwned), and raises updated once for the range.
//
//kimbap:conflictfree
func (m *fullMap[V]) combineDense(acc *denseReduce[V], t int) {
	nm := m.hp.NumMasters
	changed := false
	acc.drainRange(t, m.dense[1:], m.op.Combine, func(w int, word uint64) {
		var dirty uint64
		for ; word != 0; word &= word - 1 {
			i := bits.TrailingZeros64(word)
			l := graph.NodeID(w*64 + i)
			if int(l) >= nm {
				k := m.hp.GlobalID(l)
				m.rf.add(t, m.hp.Owner(k), k, acc.vals[l])
			} else if m.combineMaster(l, acc.vals[l]) {
				dirty |= uint64(1) << i
			}
		}
		if dirty != 0 {
			changed = true
			m.masterDirty.OrWordOwned(w, dirty)
			if m.frontier != nil {
				m.frontier.ActivateWordOwned(w, dirty)
			}
		}
	})
	if changed {
		m.updated.Store(true)
	}
}

// combineMaster merges v into master i (master-local ID, which is also its
// host-local ID) and reports whether the value changed. Only ever called
// from the thread owning i's key range, so the read-modify-write is race
// free.
//
//kimbap:conflictfree
func (m *fullMap[V]) combineMaster(i graph.NodeID, v V) bool {
	old := m.masters[i]
	nv := m.op.Combine(old, v)
	if nv == old {
		return false
	}
	m.masters[i] = nv
	return true
}

// applyToMaster merges v into the canonical master value, tracking change
// for IsUpdated and the broadcast dirty set. The gather-side ranges are
// global key ranges, not word-aligned in local-ID space, so neighboring
// threads may share a bitset word: the marks stay CAS (markMaster).
//
//kimbap:conflictfree
func (m *fullMap[V]) applyToMaster(k graph.NodeID, v V) {
	if i := k - m.masterLo; m.combineMaster(i, v) {
		m.markMaster(i)
	}
}

// markMaster records a change to master i from a thread that does not own
// i's bitset words: updated (stored only if not already set, so changes
// after the first do not write the shared flag), the broadcast dirty set
// and, when attached, the frontier. Only effective reduces activate: an
// input that cannot change the value cannot seed further change.
//
//kimbap:conflictfree
func (m *fullMap[V]) markMaster(i graph.NodeID) {
	if !m.updated.Load() {
		m.updated.Store(true)
	}
	m.masterDirty.Set(int(i))
	if m.frontier != nil {
		m.frontier.Activate(int(i))
	}
}

// BroadcastSync implements Map: positional dirty-bitmask broadcast of
// changed master values to pinned mirrors.
func (m *fullMap[V]) BroadcastSync() {
	if !m.pinned {
		panic("npm: BroadcastSync without PinMirrors")
	}
	m.broadcast(false)
}

func (m *fullMap[V]) broadcast(full bool) {
	m.h.TimeBroadcast(func() {
		numHosts := m.hp.NumHosts()
		self := m.h.Rank

		// Overlapped scatter, like ReduceSync: destination o's payload goes
		// on the wire while o+1's is still being assembled. Every
		// destination's encode consults the dirty set, so it is cleared
		// only after the exchange. Buffers are double-buffered per the comm
		// buffer-ownership contract.
		m.bcastOut = m.bcastBufs[m.bcastGen]
		m.bcastGen ^= 1
		m.bcastFull = full
		in := comm.ExchangeFunc(m.h.EP, comm.TagBroadcast, m.encodeBcast, m.recvIn)
		m.masterDirty.Clear()

		for o := 0; o < numHosts; o++ {
			if o == self || len(in[o]) == 0 {
				continue
			}
			list := m.hp.MirrorsByOwner[o]
			payload := in[o]
			form := payload[0]
			payload = payload[1:]
			if form == sectionSparse {
				var n uint64
				n, payload = comm.ReadUvarint(payload)
				idx := uint64(0)
				for j := uint64(0); j < n; j++ {
					var d uint64
					d, payload = comm.ReadUvarint(payload)
					idx += d
					var v V
					v, payload = m.codec.Read(payload)
					m.setMirror(list[idx], v)
				}
				continue
			}
			maskLen := (len(list) + 7) / 8
			mask := payload[:maskLen]
			payload = payload[maskLen:]
			for i, local := range list {
				if mask[i/8]&(1<<(uint(i)%8)) != 0 {
					var v V
					v, payload = m.codec.Read(payload)
					m.setMirror(local, v)
				}
			}
		}
	})
}

// setMirror stores a broadcast value into a pinned mirror slot, activating
// the mirror's frontier bit when the value actually changed. Mirrors by
// construction belong to disjoint owner lists, so decode loops never race.
func (m *fullMap[V]) setMirror(local graph.NodeID, v V) {
	slot := &m.mirrors[int(local)-m.hp.NumMasters]
	if *slot != v {
		*slot = v
		if m.frontier != nil {
			m.frontier.Activate(int(local))
		}
	}
}

// bcastPayload assembles the broadcast payload for destination o: a form
// byte, then either the dense positional form (a dirty bitmask over
// MasterSendTo[o] followed by the changed values in list order) or, when it
// encodes smaller, the sparse form (uvarint count, then delta-varint list
// indices each followed by its value). A round with nothing dirty for o
// returns an empty payload. Each payload's form byte makes it
// self-describing. Called by ExchangeFunc once per destination.
func (m *fullMap[V]) bcastPayload(o int) []byte {
	list := m.hp.MasterSendTo[o]
	maskLen := (len(list) + 7) / 8
	out := m.bcastOut
	buf := out[o][:0]
	// First pass: count dirty entries and size the sparse index stream.
	n, idxBytes, prev := 0, 0, 0
	if m.bcastFull {
		n = len(list)
	} else {
		for i, local := range list {
			if m.masterDirty.Test(int(local)) {
				idxBytes += comm.UvarintLen(uint64(i - prev))
				prev = i
				n++
			}
		}
	}
	if n == 0 {
		out[o] = buf
		return buf
	}
	if !m.bcastFull && comm.UvarintLen(uint64(n))+idxBytes < maskLen {
		buf = append(buf, sectionSparse)
		buf = comm.AppendUvarint(buf, uint64(n))
		prev = 0
		for i, local := range list {
			if m.masterDirty.Test(int(local)) {
				buf = comm.AppendUvarint(buf, uint64(i-prev))
				prev = i
				buf = m.codec.Append(buf, m.masters[local])
			}
		}
		out[o] = buf
		return buf
	}
	buf = append(buf, sectionDense)
	for i := 0; i < maskLen; i++ {
		buf = append(buf, 0)
	}
	for i, local := range list {
		if m.bcastFull || m.masterDirty.Test(int(local)) {
			buf[1+i/8] |= 1 << (uint(i) % 8)
			buf = m.codec.Append(buf, m.masters[local])
		}
	}
	out[o] = buf
	return buf
}

// PinMirrors implements Map: materialize mirrors and fill them with a full
// broadcast. The mirror array is kept across unpin/pin cycles: besides
// saving the allocation, the stale values are exactly the mirrors' state at
// the last unpin, so the refresh broadcast's change detection (setMirror)
// activates the frontier only for mirrors whose master actually changed in
// between — the signal phase-seeded frontiers (ccHook) rely on.
func (m *fullMap[V]) PinMirrors() {
	if m.pinned {
		return
	}
	if m.mirrors == nil {
		m.mirrors = make([]V, m.hp.NumMirrors())
	}
	m.masterDirty.Clear()
	m.pinned = true
	m.broadcast(true)
}

// UnpinMirrors implements Map. Reads of non-masters while unpinned go
// through the request cache (m.pinned guards every mirror access), so the
// retained array can never serve stale values.
func (m *fullMap[V]) UnpinMirrors() {
	m.pinned = false
}

// ResetUpdated implements Map.
func (m *fullMap[V]) ResetUpdated() { m.updated.Store(false) }

// IsUpdated implements Map (collective OR across hosts).
func (m *fullMap[V]) IsUpdated() bool {
	m.h.TimeComm(func() {
		m.updatedGlobal = comm.AllReduceBool(m.h.EP, m.updated.Load())
	})
	return m.updatedGlobal
}

// ReadStats implements Map.
func (m *fullMap[V]) ReadStats() (master, remote int64) {
	return m.readMaster.Load(), m.readRemote.Load()
}
