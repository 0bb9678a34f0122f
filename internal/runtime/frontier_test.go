package runtime

import (
	"kimbap/internal/par"
	"math/rand"
	"sync/atomic"
	"testing"

	"kimbap/internal/graph"
)

func TestBitsetForEachSetFrom(t *testing.T) {
	b := par.NewBitset(200)
	set := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range set {
		b.Set(i)
	}
	for _, start := range []int{-5, 0, 1, 2, 63, 64, 66, 128, 199, 200, 500} {
		var got []int
		b.ForEachSetFrom(start, func(i int) { got = append(got, i) })
		var want []int
		for _, i := range set {
			if i >= start {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("start %d: got %v, want %v", start, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("start %d: got %v, want %v", start, got, want)
			}
		}
	}
}

func TestQuickBitsetRangeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(300)
		b := par.NewBitset(size)
		ref := make([]bool, size)
		for k := 0; k < 3; k++ {
			lo := rng.Intn(size + 1)
			hi := lo + rng.Intn(size+1-lo)
			b.SetRange(lo, hi)
			for i := lo; i < hi; i++ {
				ref[i] = true
			}
		}
		for k := 0; k < 5; k++ {
			lo := rng.Intn(size + 1)
			hi := lo + rng.Intn(size+1-lo)
			want := 0
			for i := lo; i < hi; i++ {
				if ref[i] {
					want++
				}
			}
			if got := b.CountRange(lo, hi); got != want {
				t.Fatalf("size %d CountRange(%d,%d) = %d, want %d", size, lo, hi, got, want)
			}
		}
		wantTotal := 0
		for _, v := range ref {
			if v {
				wantTotal++
			}
		}
		if got := b.Count(); got != wantTotal {
			t.Fatalf("size %d Count = %d, want %d", size, got, wantTotal)
		}
	}
}

func TestBitsetOrInto(t *testing.T) {
	a, b := par.NewBitset(130), par.NewBitset(130)
	a.Set(0)
	a.Set(64)
	a.Set(129)
	b.Set(1)
	b.Set(64)
	a.OrInto(b)
	for _, i := range []int{0, 1, 64, 129} {
		if !b.Test(i) {
			t.Fatalf("bit %d not set after OrInto", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count after OrInto = %d, want 4", b.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OrInto with mismatched sizes did not panic")
		}
	}()
	par.NewBitset(10).OrInto(par.NewBitset(11))
}

func TestFrontierDoubleBuffering(t *testing.T) {
	f := NewFrontier(100)
	if f.Count() != 0 {
		t.Fatal("new frontier not empty")
	}
	f.Activate(3)
	f.Activate(97)
	if f.Count() != 0 || f.IsActive(3) {
		t.Fatal("activation visible before advance")
	}
	if n := f.advance(); n != 2 {
		t.Fatalf("advance = %d, want 2", n)
	}
	if !f.IsActive(3) || !f.IsActive(97) || f.IsActive(4) {
		t.Fatal("current set wrong after advance")
	}
	// Activations during a round land in the next set only.
	f.Activate(50)
	if f.IsActive(50) {
		t.Fatal("next-set activation leaked into current set")
	}
	if n := f.advance(); n != 1 || !f.IsActive(50) || f.IsActive(3) {
		t.Fatalf("second advance: count %d, active(50)=%v active(3)=%v", n, f.IsActive(50), f.IsActive(3))
	}
	f.ActivateRange(10, 20)
	f.advance()
	if f.Count() != 10 || f.CountRange(0, 15) != 5 {
		t.Fatalf("range activation: count %d, countRange %d", f.Count(), f.CountRange(0, 15))
	}
	f.Reset()
	if f.Count() != 0 {
		t.Fatal("Reset left active bits")
	}
	f.ActivateAll()
	if n := f.advance(); n != 100 {
		t.Fatalf("ActivateAll count = %d, want 100", n)
	}
	if f.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint not positive")
	}
}

// ParForActive must visit exactly the current set once, in both the dense
// (bitset scan) and sparse (compacted index list) regimes, and concurrent
// Activate calls from the loop body must land in the next set.
func TestParForActiveDenseAndSparse(t *testing.T) {
	h := &Host{Threads: 4, pool: newWorkerPool(4)}
	defer h.pool.close()
	const n = 1000
	for _, active := range []int{0, 1, 5, 50, n} { // 5/1000 sparse, 1000/1000 dense
		f := NewFrontier(n)
		for i := 0; i < active; i++ {
			f.Activate(i * (n / max(active, 1)) % n)
		}
		f.advance()
		var visits [n]atomic.Int32
		h.ParForActive(f, func(_ int, node graph.NodeID) {
			visits[node].Add(1)
			f.Activate(int(node)) // must land in next, not affect this round
		})
		got := 0
		for i := range visits {
			c := visits[i].Load()
			if c > 1 {
				t.Fatalf("active %d: node %d visited %d times", active, i, c)
			}
			if (c == 1) != f.IsActive(i) {
				t.Fatalf("active %d: node %d visited=%v active=%v", active, i, c == 1, f.IsActive(i))
			}
			got += int(c)
		}
		if got != f.Count() {
			t.Fatalf("active %d: visited %d, frontier count %d", active, got, f.Count())
		}
		if f.advance() != got {
			t.Fatal("in-loop activations did not land in next set")
		}
	}
}

// testHost is a bare host with a worker pool of the given size: enough for
// the ParFor family, with no partition or endpoint.
func testHost(threads int) *Host {
	return &Host{Threads: threads, pool: newWorkerPool(threads)}
}

// Each of ParForActive's three forms, reached by frontier size and
// active count alone under the package thresholds, must show its
// observable signature: the serial form runs everything on the calling
// goroutine as tid 0, the sparse form materializes the compacted index,
// and all three visit the active set exactly once — or, bounded at hi
// (a master range) mid-word, exactly its part below hi.
func TestParForActiveForms(t *testing.T) {
	const n = 4 * frontierDenseDivisor * frontierSerialCutoff
	run := func(h *Host, active, hi int) (*Frontier, []int32) {
		f := NewFrontier(n)
		for i := 0; i < active; i++ {
			f.Activate(i * (n / active))
		}
		f.advance()
		visits := make([]int32, n)
		h.parForActive(f, hi, func(tid int, node graph.NodeID) {
			atomic.AddInt32(&visits[node], int32(1+tid<<8))
		})
		return f, visits
	}
	check := func(t *testing.T, f *Frontier, visits []int32, hi int, wantTid0 bool) {
		t.Helper()
		for i, v := range visits {
			count := v & 0xff
			want := int32(0)
			if f.IsActive(i) && i < hi {
				want = 1
			}
			if count != want {
				t.Fatalf("hi %d: node %d visited %d times, want %d", hi, i, count, want)
			}
			if wantTid0 && v>>8 != 0 {
				t.Fatalf("hi %d: node %d ran on tid %d, want serial tid 0", hi, i, v>>8)
			}
		}
	}

	for _, hi := range []int{n, n/2 + 37} {
		suffix := ""
		if hi < n {
			suffix = "-bounded"
		}
		t.Run("serial"+suffix, func(t *testing.T) {
			h := testHost(4)
			defer h.pool.close()
			f, visits := run(h, frontierSerialCutoff, hi) // at the cutoff: inline
			check(t, f, visits, hi, true)
			if f.idxValid {
				t.Fatal("serial path built the sparse index")
			}
		})
		t.Run("dense"+suffix, func(t *testing.T) {
			h := testHost(4)
			defer h.pool.close()
			f, visits := run(h, n/frontierDenseDivisor, hi) // count*divisor == size: bitset scan
			check(t, f, visits, hi, false)
			if f.idxValid {
				t.Fatal("dense path built the sparse index")
			}
		})
		t.Run("sparse"+suffix, func(t *testing.T) {
			h := testHost(4)
			defer h.pool.close()
			f, visits := run(h, 2*frontierSerialCutoff, hi) // above the cutoff, count*divisor < size
			check(t, f, visits, hi, false)
			if !f.idxValid {
				t.Fatal("sparse path did not build the compacted index")
			}
		})
	}
}
