package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDequeSerialLIFOAndFIFO(t *testing.T) {
	d := NewDeque(5)
	if d.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8 (rounded up)", d.Cap())
	}
	for i := int32(0); i < 8; i++ {
		if !d.Push(i) {
			t.Fatalf("Push(%d) refused below capacity", i)
		}
	}
	if d.Push(99) {
		t.Fatal("Push succeeded on a full deque")
	}
	// Owner pops LIFO.
	for want := int32(7); want >= 4; want-- {
		v, ok := d.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	// Thief steals FIFO from the other end.
	for want := int32(0); want < 4; want++ {
		v, ok := d.Steal()
		if !ok || v != want {
			t.Fatalf("Steal = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop on empty deque returned an item")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal on empty deque returned an item")
	}
	if !d.Empty() {
		t.Fatal("Empty = false on drained deque")
	}
	// Cursors keep working after wraparound.
	for i := int32(100); i < 108; i++ {
		if !d.Push(i) {
			t.Fatalf("Push(%d) refused after drain", i)
		}
	}
	if v, ok := d.Pop(); !ok || v != 107 {
		t.Fatalf("post-wrap Pop = (%d, %v), want (107, true)", v, ok)
	}
}

// TestDequeConcurrentStealExactlyOnce runs one owner (push/pop) against
// several thieves and checks every item is consumed exactly once.
func TestDequeConcurrentStealExactlyOnce(t *testing.T) {
	const (
		items   = 1 << 14
		thieves = 4
	)
	d := NewDeque(items)
	seen := make([]atomic.Int32, items)
	consume := func(v int32) {
		if n := seen[v].Add(1); n != 1 {
			t.Errorf("item %d consumed %d times", v, n)
		}
	}
	var consumed atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					consume(v)
					consumed.Add(1)
				} else {
					select {
					case <-done:
						return
					default:
					}
				}
			}
		}()
	}
	// Owner: push all items, popping a few along the way to exercise the
	// last-item race.
	for i := int32(0); i < items; i++ {
		for !d.Push(i) {
		}
		if i%7 == 0 {
			if v, ok := d.Pop(); ok {
				consume(v)
				consumed.Add(1)
			}
		}
	}
	for {
		v, ok := d.Pop()
		if !ok {
			if consumed.Load() == items {
				break
			}
			continue
		}
		consume(v)
		consumed.Add(1)
	}
	close(done)
	wg.Wait()
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("item %d consumed %d times, want exactly 1", i, seen[i].Load())
		}
	}
}
