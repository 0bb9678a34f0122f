package runtime

import (
	stdrt "runtime"
	"sync"
	"sync/atomic"

	"kimbap/internal/graph"
	"kimbap/internal/par"
)

// Asynchronous intra-host execution. A drain replaces one BSP compute
// round's "iterate the frontier, buffer reduces, wait for Advance" with a
// priority-scheduled worker loop over the round's seed set: each worker
// owns a small stack of Chase-Lev deques (one per priority level), pops
// locally, and steals from peers when dry. The operator bodies it runs
// apply updates via atomic CAS instead of round-buffered reduce, so a body
// sees its peers' applies of the same round — the pointer-jumping chase
// (algorithms.ccChaseBody) collapses a whole local parent chain in one
// drain instead of one BSP round per halving.
//
// A drain runs exactly its seed: bodies activate follow-up work for the
// next round through the frontier, never for this one.
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
	// vertices share level 0. Called while seeding, before the workers
	// start.
	Priority func(node graph.NodeID) int
}

// maxAsyncLevels bounds the per-worker deque stack; priority schedules
// coarsely (OBIM-style binning), so a handful of levels is plenty.
const maxAsyncLevels = 4

// AsyncCtx is the per-worker handle the scheduler passes to a drain body.
// It carries nothing: its type marks a function as a drain body, which is
// how the phaseorder analyzer recognizes bodies built by factories.
type AsyncCtx struct{}

// asyncSched is a host's persistent drain state, reused across drains so
// steady-state rounds allocate nothing.
type asyncSched struct {
	threads int
	size    int
	levels  int
	deques  [][]*par.Deque // [worker][level]
	// pending counts seeded-but-unprocessed vertices; zero is the drain's
	// termination condition.
	pending atomic.Int64
}

func newAsyncSched(threads, size int) *asyncSched {
	if threads < 1 {
		threads = 1
	}
	// Each deque holds an even share of the vertex set, so a round-robin
	// seed — even a full frontier — always fits.
	capPer := size/threads + 1
	s := &asyncSched{
		threads: threads,
		size:    size,
		levels:  maxAsyncLevels,
		deques:  make([][]*par.Deque, threads),
	}
	for w := range s.deques {
		s.deques[w] = make([]*par.Deque, maxAsyncLevels)
		for l := range s.deques[w] {
			s.deques[w][l] = par.NewDeque(capPer)
		}
	}
	return s
}

// level clamps a priority to the drain's level range.
func (s *asyncSched) level(priority func(graph.NodeID) int, node graph.NodeID) int {
	if priority == nil {
		return 0
	}
	return min(max(priority(node), 0), s.levels-1)
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

func (s *asyncSched) worker(w int, body func(tid int, node graph.NodeID, cx *AsyncCtx)) {
	var cx AsyncCtx
	for {
		i, ok := s.popOwn(w)
		if !ok {
			i, ok = s.stealAny(w)
		}
		if !ok {
			if s.pending.Load() == 0 {
				return
			}
			stdrt.Gosched()
			continue
		}
		body(w, graph.NodeID(i), &cx)
		s.pending.Add(-1)
	}
}

// AsyncDrain runs body once for every vertex in f's current set, in
// priority order per worker, and blocks until every one has run. The
// frontier's current set is read, never written; bodies activate
// follow-up work with f.Activate (next BSP round) and apply value updates
// via atomic CAS (npm.AsyncNodeHandle) — round-buffered Reduce remains
// legal for remote targets. Like ParFor, this is a blocking parallel
// entry point: it joins all workers before returning, so the caller may
// touch shared state plainly afterwards.
func (h *Host) AsyncDrain(f *Frontier, opts AsyncOpts, body func(tid int, node graph.NodeID, cx *AsyncCtx)) {
	h.asyncDrain(f.cur, f.Count(), opts, body)
}

// AsyncDrainBits is AsyncDrain over an explicit seed bitset (phases that
// track their own pending sets, e.g. CC shortcut's unresolved-remote set).
func (h *Host) AsyncDrainBits(b *par.Bitset, opts AsyncOpts, body func(tid int, node graph.NodeID, cx *AsyncCtx)) {
	h.asyncDrain(b, b.Count(), opts, body)
}

func (h *Host) asyncDrain(seed *par.Bitset, count int, opts AsyncOpts, body func(tid int, node graph.NodeID, cx *AsyncCtx)) {
	if count == 0 {
		return
	}
	threads := max(h.Threads, 1)
	s := h.async
	if s == nil || s.threads != threads || s.size != seed.Size() {
		s = newAsyncSched(threads, seed.Size())
		h.async = s
	}
	s.levels = maxAsyncLevels
	if opts.Levels > 0 && opts.Levels < maxAsyncLevels {
		s.levels = opts.Levels
	}
	// Seed round-robin across workers. Pre-launch, so pushing into every
	// worker's deque from this goroutine respects deque ownership via the
	// happens-before of goroutine start.
	s.pending.Store(int64(count))
	w := 0
	seed.ForEachSet(func(i int) {
		if !s.deques[w][s.level(opts.Priority, graph.NodeID(i))].Push(int32(i)) {
			panic("runtime: async seed overflowed its deque")
		}
		w = (w + 1) % threads
	})
	if threads == 1 {
		s.worker(0, body)
		return
	}
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
