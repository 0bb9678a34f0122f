package runtime

import (
	"kimbap/internal/par"
	"sync/atomic"
	"testing"

	"kimbap/internal/graph"
)

func testHost(threads int) *Host {
	return &Host{Threads: threads, pool: newWorkerPool(threads)}
}

// A drain with no in-body enqueues must process every seeded vertex exactly
// once, regardless of worker count.
func TestAsyncDrainVisitsSeedOnce(t *testing.T) {
	const n = 2000
	for _, threads := range []int{1, 2, 4, 8} {
		h := testHost(threads)
		f := NewFrontier(n)
		for i := 0; i < n; i += 3 {
			f.Activate(i)
		}
		f.Advance()
		var visits [n]atomic.Int32
		stats := h.AsyncDrain(f, AsyncOpts{}, func(_ int, node graph.NodeID, _ *AsyncCtx) {
			visits[node].Add(1)
		})
		for i := range visits {
			want := int32(0)
			if i%3 == 0 {
				want = 1
			}
			if got := visits[i].Load(); got != want {
				t.Fatalf("threads=%d: node %d visited %d times, want %d", threads, i, got, want)
			}
		}
		if stats.Seeded != int64(f.Count()) || stats.Processed != stats.Seeded {
			t.Fatalf("threads=%d: stats %+v, want Seeded=Processed=%d", threads, stats, f.Count())
		}
		h.pool.close()
	}
}

// A dependency chain seeded at one end must collapse in a single drain:
// each body enqueues its successor, and the drain only terminates once the
// whole chain has run. This is the async mode's reason to exist — the same
// chain costs N BSP rounds.
func TestAsyncDrainCascadeCollapsesChain(t *testing.T) {
	const n = 5000
	for _, threads := range []int{1, 4} {
		h := testHost(threads)
		f := NewFrontier(n)
		f.Activate(0)
		f.Advance()
		var reached [n]atomic.Int32
		stats := h.AsyncDrain(f, AsyncOpts{}, func(_ int, node graph.NodeID, cx *AsyncCtx) {
			reached[node].Add(1)
			if int(node)+1 < n {
				cx.Enqueue(node + 1)
			}
		})
		for i := range reached {
			if reached[i].Load() == 0 {
				t.Fatalf("threads=%d: chain vertex %d never processed", threads, i)
			}
		}
		if stats.Seeded != 1 || stats.Processed < n || stats.Reenqueued < n-1 {
			t.Fatalf("threads=%d: stats %+v, want Seeded=1 Processed>=%d Reenqueued>=%d",
				threads, stats, n, n-1)
		}
		h.pool.close()
	}
}

// Enqueue deduplicates: activations of a vertex that is already queued are
// dropped. One worker, with the target parked at the low-priority level so
// every activator runs before it: the first Enqueue queues it, the other
// n-2 hit the dedup bit, and the target processes exactly once.
func TestAsyncDrainEnqueueDedup(t *testing.T) {
	const n = 1000
	h := testHost(1)
	defer h.pool.close()
	f := NewFrontier(n)
	for i := 1; i < n; i++ {
		f.Activate(i)
	}
	f.Advance()
	var hits atomic.Int64
	stats := h.AsyncDrain(f, AsyncOpts{
		Levels:   2,
		Priority: func(node graph.NodeID) int { return 1 - int(min(node, 1)) },
	}, func(_ int, node graph.NodeID, cx *AsyncCtx) {
		if node == 0 {
			hits.Add(1)
			return
		}
		cx.Enqueue(0) // everyone piles onto vertex 0
	})
	if got := hits.Load(); got != 1 {
		t.Fatalf("vertex 0 processed %d times, want exactly 1", got)
	}
	if stats.Reenqueued != 1 {
		t.Fatalf("Reenqueued = %d, want 1 (dedup drops the rest)", stats.Reenqueued)
	}
}

// With a single worker, all level-0 vertices must run before any level-1
// vertex (one worker, no steals, levels scanned in order).
func TestAsyncDrainPriorityOrder(t *testing.T) {
	const n = 512
	h := testHost(1)
	defer h.pool.close()
	f := NewFrontier(n)
	for i := 0; i < n; i++ {
		f.Activate(i)
	}
	f.Advance()
	var order []graph.NodeID
	h.AsyncDrain(f, AsyncOpts{
		Levels:   2,
		Priority: func(node graph.NodeID) int { return int(node) % 2 },
	}, func(_ int, node graph.NodeID, _ *AsyncCtx) {
		order = append(order, node)
	})
	if len(order) != n {
		t.Fatalf("processed %d vertices, want %d", len(order), n)
	}
	seenHigh := false
	for _, node := range order {
		if node%2 == 1 {
			seenHigh = true
		} else if seenHigh {
			t.Fatalf("level-0 vertex %d ran after a level-1 vertex", node)
		}
	}
}

// A body that floods its own worker's deque must overflow into the spill
// set without losing work. Thieves park in the body until the flood ends,
// so each relieves the flooding worker of at most one vertex and the
// overflow is certain rather than a race against their stealing rate.
func TestAsyncDrainSpillOverflow(t *testing.T) {
	const n = 20000 // per-worker deque cap is n/threads+1, far below n
	h := testHost(4)
	defer h.pool.close()
	f := NewFrontier(n)
	f.Activate(0)
	f.Advance()
	var visits [n]atomic.Int32
	flooded := make(chan struct{})
	stats := h.AsyncDrain(f, AsyncOpts{}, func(_ int, node graph.NodeID, cx *AsyncCtx) {
		visits[node].Add(1)
		if node != 0 {
			<-flooded
			return
		}
		for i := 1; i < n; i++ {
			cx.Enqueue(graph.NodeID(i))
		}
		close(flooded)
	})
	for i := range visits {
		if visits[i].Load() == 0 {
			t.Fatalf("vertex %d lost (spilled but never claimed)", i)
		}
	}
	if stats.Spills == 0 {
		t.Fatalf("flooding one worker produced no spills: %+v", stats)
	}
}

// AsyncDrainBits drains an explicit bitset seed (the shortcut phase's
// pending set) with the same exactly-once guarantee.
func TestAsyncDrainBits(t *testing.T) {
	const n = 300
	h := testHost(3)
	defer h.pool.close()
	b := par.NewBitset(n)
	for _, i := range []int{0, 7, 63, 64, 299} {
		b.Set(i)
	}
	var visits [n]atomic.Int32
	stats := h.AsyncDrainBits(b, AsyncOpts{}, func(_ int, node graph.NodeID, _ *AsyncCtx) {
		visits[node].Add(1)
	})
	if stats.Seeded != 5 || stats.Processed != 5 {
		t.Fatalf("stats %+v, want 5 seeded and processed", stats)
	}
	for i := range visits {
		want := int32(0)
		if b.Test(i) {
			want = 1
		}
		if visits[i].Load() != want {
			t.Fatalf("vertex %d visited %d times, want %d", i, visits[i].Load(), want)
		}
	}
}

// The scheduler is reused across drains; counters and dedup state must
// reset so a second drain over the same frontier is identical.
func TestAsyncDrainReuse(t *testing.T) {
	const n = 400
	h := testHost(2)
	defer h.pool.close()
	f := NewFrontier(n)
	f.ActivateAll()
	f.Advance()
	for round := 0; round < 3; round++ {
		var count atomic.Int64
		stats := h.AsyncDrain(f, AsyncOpts{}, func(_ int, _ graph.NodeID, _ *AsyncCtx) {
			count.Add(1)
		})
		if count.Load() != n || stats.Processed != n || stats.Seeded != n {
			t.Fatalf("round %d: count=%d stats=%+v, want %d", round, count.Load(), stats, n)
		}
	}
}
