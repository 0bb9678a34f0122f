package runtime

import (
	"math/bits"
	stdrt "runtime"
	"sync"
	"sync/atomic"

	"kimbap/internal/graph"
	"kimbap/internal/par"
)

// Asynchronous intra-host execution. A drain replaces one BSP compute
// round's "iterate the frontier, buffer reduces, wait for Advance" with a
// priority-scheduled worker loop: each worker owns a small stack of
// Chase-Lev deques (one per priority level), pops locally, steals from
// peers when dry, and — because the operator bodies it runs apply updates
// via atomic CAS instead of round-buffered reduce — re-enqueues
// newly-activated vertices immediately. Work started this round is
// finished this round: a chain of N dependent updates collapses in one
// drain instead of N BSP rounds.
//
// Cross-host synchronization stays BSP. A drain runs strictly between
// collective sync phases, touches only host-local proxies, and joins all
// its workers before returning, so the comm layer, the wire formats, and
// the happens-before structure of the surrounding program are untouched.

// AsyncOpts configures one drain.
type AsyncOpts struct {
	// Levels is the number of priority levels (1..maxAsyncLevels); zero
	// means one. Lower levels run first.
	Levels int
	// Priority maps a vertex to its level in [0, Levels). Nil means all
	// vertices share level 0. Called at enqueue time, possibly from
	// several workers at once — it must be safe for concurrent use and
	// read shared state atomically.
	Priority func(node graph.NodeID) int
}

// maxAsyncLevels bounds the per-worker deque stack; priority schedules
// coarsely (OBIM-style binning), so a handful of levels is plenty.
const maxAsyncLevels = 4

// DrainStats is one drain's telemetry, the raw signal the adaptive policy
// engine consumes.
type DrainStats struct {
	Seeded     int64 // vertices in the seed set
	Processed  int64 // body invocations (>= Seeded when work cascades)
	Reenqueued int64 // immediate re-activations from operator bodies
	Steals     int64 // successful cross-worker steals
	Spills     int64 // enqueues that overflowed a deque into the spill set
}

// Accumulate adds o's counters into s (per-round totals across drains).
func (s *DrainStats) Accumulate(o DrainStats) {
	s.Seeded += o.Seeded
	s.Processed += o.Processed
	s.Reenqueued += o.Reenqueued
	s.Steals += o.Steals
	s.Spills += o.Spills
}

// AsyncCtx is the per-worker handle an operator body uses to re-enqueue
// vertices it just activated.
type AsyncCtx struct {
	s *asyncSched
	w int
}

// Enqueue schedules node for processing in this drain. Deduplicated: a
// vertex already queued is not queued again, but a vertex currently being
// processed is — bodies must therefore tolerate concurrent invocation for
// the same vertex, which CAS-applied monotone operators do by
// construction.
//
//kimbap:conflictfree
func (c *AsyncCtx) Enqueue(node graph.NodeID) {
	s := c.s
	if s.enqueue(c.w, int32(node), s.level(node)) {
		s.counters[c.w].reenqueued++
	}
}

// drainCounters is one worker's telemetry slot, padded to a cache line so
// hot-loop increments never false-share.
type drainCounters struct {
	processed  int64
	reenqueued int64
	steals     int64
	spills     int64
	_          [4]int64
}

// asyncSched is a host's persistent drain state, reused across drains so
// steady-state rounds allocate nothing.
type asyncSched struct {
	threads int
	levels  int
	deques  [][]*par.Deque // [worker][level]
	// queued marks vertices currently enqueued (dedup); cleared before the
	// body runs so an activation racing the body re-enqueues.
	queued *par.Bitset
	// spill parks enqueues that found their deque full; idle workers claim
	// from it. spillCount lets the common no-spill case skip the scan, and
	// spillHint rotates the scan's starting word so consecutive claims
	// don't re-walk the already-drained prefix (the scan wraps the whole
	// set, so a stale hint costs time, never correctness).
	spill      *par.Bitset
	spillCount atomic.Int64
	spillHint  atomic.Int64
	// pending counts enqueued-but-unprocessed vertices; zero is the
	// drain's termination condition.
	pending  atomic.Int64
	priority func(node graph.NodeID) int
	counters []drainCounters
}

func newAsyncSched(threads, size int) *asyncSched {
	if threads < 1 {
		threads = 1
	}
	// Each deque holds an even share of the vertex set, so a round-robin
	// seed — even a full frontier — never spills. The spill set only
	// absorbs skew: a body flooding activations onto one worker faster
	// than thieves relieve it. (Capping deques below the seed share sends
	// most of a dense frontier through the spill set's shared bitmap scan,
	// which profiles an order of magnitude slower than deque pops.)
	capPer := size/threads + 1
	s := &asyncSched{
		threads:  threads,
		levels:   maxAsyncLevels,
		deques:   make([][]*par.Deque, threads),
		queued:   par.NewBitset(size),
		spill:    par.NewBitset(size),
		counters: make([]drainCounters, threads),
	}
	for w := range s.deques {
		s.deques[w] = make([]*par.Deque, maxAsyncLevels)
		for l := range s.deques[w] {
			s.deques[w][l] = par.NewDeque(capPer)
		}
	}
	return s
}

func (s *asyncSched) level(node graph.NodeID) int {
	if s.priority == nil {
		return 0
	}
	l := s.priority(node)
	if l < 0 {
		return 0
	}
	if l >= s.levels {
		return s.levels - 1
	}
	return l
}

// enqueue adds vertex i to worker w's level-lvl deque (or the spill set),
// unless it is already queued. Reports whether it enqueued.
//
//kimbap:conflictfree
func (s *asyncSched) enqueue(w int, i int32, lvl int) bool {
	if !s.queued.Set(int(i)) {
		return false
	}
	s.pending.Add(1)
	if !s.deques[w][lvl].Push(i) {
		if s.spill.Set(int(i)) {
			s.spillCount.Add(1)
		}
		s.counters[w].spills++
	}
	return true
}

func (s *asyncSched) popOwn(w int) (int32, bool) {
	for l := 0; l < s.levels; l++ {
		if v, ok := s.deques[w][l].Pop(); ok {
			return v, true
		}
	}
	return 0, false
}

// stealAny sweeps peers once, highest priority level first.
//
//kimbap:conflictfree
func (s *asyncSched) stealAny(w int) (int32, bool) {
	for l := 0; l < s.levels; l++ {
		for k := 1; k < s.threads; k++ {
			if v, ok := s.deques[(w+k)%s.threads][l].Steal(); ok {
				return v, true
			}
		}
	}
	return 0, false
}

// claimSpill scans the spill set for a vertex to claim. Unset's
// previously-set return arbitrates concurrent claimers. The scan starts
// at the hint word and wraps the full set, so no set bit is ever missed;
// the hint just keeps consecutive claims from re-walking drained words.
func (s *asyncSched) claimSpill() (int32, bool) {
	if s.spillCount.Load() == 0 {
		return 0, false
	}
	words := s.spill.Words()
	start := int(s.spillHint.Load()) % words
	if start < 0 {
		start = 0
	}
	for k := 0; k < words; k++ {
		wi := start + k
		if wi >= words {
			wi -= words
		}
		word := s.spill.MaskedWord(wi)
		for word != 0 {
			i := wi*64 + bits.TrailingZeros64(word)
			if s.spill.Unset(i) {
				s.spillCount.Add(-1)
				s.spillHint.Store(int64(wi))
				return int32(i), true
			}
			word &= word - 1
		}
	}
	return 0, false
}

func (s *asyncSched) worker(w int, body func(tid int, node graph.NodeID, cx *AsyncCtx)) {
	cx := AsyncCtx{s: s, w: w}
	c := &s.counters[w]
	for {
		i, ok := s.popOwn(w)
		if !ok {
			if i, ok = s.stealAny(w); ok {
				c.steals++
			}
		}
		if !ok {
			i, ok = s.claimSpill()
		}
		if !ok {
			if s.pending.Load() == 0 {
				return
			}
			stdrt.Gosched()
			continue
		}
		// Clear the dedup bit before running the body: an activation
		// arriving mid-body must re-enqueue, or its work would be lost.
		s.queued.Unset(int(i))
		body(w, graph.NodeID(i), &cx)
		c.processed++
		s.pending.Add(-1)
	}
}

// AsyncDrain runs body over f's current set asynchronously and blocks
// until the drain quiesces (every queued vertex, including immediate
// re-enqueues, has been processed). The frontier's current set is read,
// never written; bodies activate follow-up work with cx.Enqueue (same
// round) and/or f.Activate (next BSP round), and apply value updates via
// atomic CAS (npm.AsyncNodeHandle) — round-buffered Reduce remains legal
// for remote targets. Like ParFor, this is a blocking parallel entry
// point: it joins all workers before returning, so the caller may touch
// shared state plainly afterwards.
func (h *Host) AsyncDrain(f *Frontier, opts AsyncOpts, body func(tid int, node graph.NodeID, cx *AsyncCtx)) DrainStats {
	return h.asyncDrain(f.cur, f.Count(), opts, body)
}

// AsyncDrainBits is AsyncDrain over an explicit seed bitset (phases that
// track their own pending sets, e.g. CC shortcut's unresolved-remote set).
func (h *Host) AsyncDrainBits(b *par.Bitset, opts AsyncOpts, body func(tid int, node graph.NodeID, cx *AsyncCtx)) DrainStats {
	return h.asyncDrain(b, b.Count(), opts, body)
}

func (h *Host) asyncDrain(seed *par.Bitset, count int, opts AsyncOpts, body func(tid int, node graph.NodeID, cx *AsyncCtx)) DrainStats {
	if count == 0 {
		return DrainStats{}
	}
	threads := h.Threads
	if threads < 1 {
		threads = 1
	}
	s := h.async
	if s == nil || s.threads != threads || s.queued.Size() != seed.Size() {
		s = newAsyncSched(threads, seed.Size())
		h.async = s
	}
	s.priority = opts.Priority
	if opts.Levels > 0 && opts.Levels < maxAsyncLevels {
		s.levels = opts.Levels
	} else {
		s.levels = maxAsyncLevels
	}
	// Seed round-robin across workers. Pre-launch, so pushing into every
	// worker's deque from this goroutine respects deque ownership via the
	// happens-before of goroutine start.
	w := 0
	seed.ForEachSet(func(i int) {
		s.enqueue(w, int32(i), s.level(graph.NodeID(i)))
		w = (w + 1) % threads
	})
	if threads == 1 {
		s.worker(0, body)
	} else {
		var wg sync.WaitGroup
		for t := 1; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				s.worker(t, body)
			}(t)
		}
		s.worker(0, body)
		wg.Wait()
	}
	stats := DrainStats{Seeded: int64(count)}
	for i := range s.counters {
		c := &s.counters[i]
		stats.Processed += c.processed
		stats.Reenqueued += c.reenqueued
		stats.Steals += c.steals
		stats.Spills += c.spills
		*c = drainCounters{}
	}
	s.priority = nil
	return stats
}
