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

// A drain must process every seeded vertex exactly once, regardless of
// worker count.
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
		h.AsyncDrain(f, AsyncOpts{}, func(_ int, node graph.NodeID, _ *AsyncCtx) {
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
		h.pool.close()
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
	h.AsyncDrainBits(b, AsyncOpts{}, func(_ int, node graph.NodeID, _ *AsyncCtx) {
		visits[node].Add(1)
	})
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

// The scheduler is reused across drains; its termination count must
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
		h.AsyncDrain(f, AsyncOpts{}, func(_ int, _ graph.NodeID, _ *AsyncCtx) {
			count.Add(1)
		})
		if count.Load() != n {
			t.Fatalf("round %d: count=%d, want %d", round, count.Load(), n)
		}
	}
}
