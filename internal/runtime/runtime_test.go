package runtime

import (
	"kimbap/internal/par"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
)

func newTestCluster(t *testing.T, hosts int) *Cluster {
	t.Helper()
	g := gen.Grid(8, 8, false, 1)
	c, err := NewCluster(g, Config{NumHosts: hosts, ThreadsPerHost: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.NumHosts != 1 || cfg.ThreadsPerHost != 4 || cfg.Policy != partition.OEC {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestNewClusterRejectsBadConfig(t *testing.T) {
	g := gen.Grid(4, 4, false, 1)
	for name, cfg := range map[string]Config{
		"negative hosts":   {NumHosts: -2},
		"negative threads": {ThreadsPerHost: -1},
		"unknown policy":   {Policy: "foo"},
	} {
		if c, err := NewCluster(g, cfg); err == nil {
			c.Close()
			t.Errorf("%s: NewCluster(%+v) returned no error", name, cfg)
		}
	}
}

func TestRunSPMD(t *testing.T) {
	c := newTestCluster(t, 4)
	var visited [4]atomic.Bool
	c.Run(func(h *Host) {
		visited[h.Rank].Store(true)
		h.Barrier()
	})
	for i := range visited {
		if !visited[i].Load() {
			t.Errorf("host %d did not run", i)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	g := gen.Grid(4, 4, false, 1)
	c, err := NewCluster(g, Config{NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	c.Run(func(h *Host) {
		if h.Rank == 1 {
			panic("boom")
		}
	})
}

func TestParForCoversAll(t *testing.T) {
	c := newTestCluster(t, 1)
	h := c.Hosts()[0]
	const n = 10000
	var hits [n]atomic.Int32
	h.ParFor(n, func(tid, i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
}

func TestParForRunsConcurrently(t *testing.T) {
	// Two iterations rendezvous: this only completes if ParFor actually
	// runs them on different workers at the same time.
	c := newTestCluster(t, 1)
	h := c.Hosts()[0]
	arrived := make(chan int, 2)
	proceed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ParFor(16, func(tid, i int) {
			if i < 2 {
				arrived <- i
				<-proceed
			}
		})
	}()
	for want := 0; want < 2; want++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("ParFor did not run two iterations concurrently")
		}
	}
	close(proceed)
	<-done
}

func TestParForZeroAndSmall(t *testing.T) {
	c := newTestCluster(t, 1)
	h := c.Hosts()[0]
	h.ParFor(0, func(tid, i int) { t.Error("called for n=0") })
	var ran atomic.Int32
	h.ParFor(1, func(tid, i int) { ran.Add(1) })
	if ran.Load() != 1 {
		t.Fatalf("n=1 ran %d times", ran.Load())
	}
}

func TestParForNodesAndMasters(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Run(func(h *Host) {
		var all, masters atomic.Int32
		h.ParForNodes(func(tid int, n graph.NodeID) { all.Add(1) })
		h.ParForMasters(func(tid int, n graph.NodeID) {
			masters.Add(1)
			if !h.HP.IsMaster(n) {
				t.Errorf("host %d: ParForMasters visited mirror %d", h.Rank, n)
			}
		})
		if int(all.Load()) != h.HP.NumLocal() {
			t.Errorf("host %d: ParForNodes visited %d of %d", h.Rank, all.Load(), h.HP.NumLocal())
		}
		if int(masters.Load()) != h.HP.NumMasters {
			t.Errorf("host %d: ParForMasters visited %d of %d", h.Rank, masters.Load(), h.HP.NumMasters)
		}
	})
}

func TestDistributedReducers(t *testing.T) {
	c := newTestCluster(t, 3)
	c.Run(func(h *Host) {
		var br BoolReducer
		br.Set(false)
		if h.Rank == 2 {
			br.Reduce(true)
		}
		br.Sync(h.EP)
		if !br.Read() {
			t.Errorf("host %d: bool reducer lost true", h.Rank)
		}

		var sr SumReducer
		sr.Set(0)
		sr.Reduce(float64(h.Rank + 1))
		sr.Sync(h.EP)
		if sr.Read() != 6 {
			t.Errorf("host %d: sum = %v, want 6", h.Rank, sr.Read())
		}

		var cr CountReducer
		cr.Set(0)
		cr.Reduce(int64(h.Rank))
		cr.Sync(h.EP)
		if cr.Read() != 3 {
			t.Errorf("host %d: count = %v, want 3", h.Rank, cr.Read())
		}
	})
}

func TestSumReducerConcurrent(t *testing.T) {
	c := newTestCluster(t, 1)
	h := c.Hosts()[0]
	var sr SumReducer
	h.ParFor(1000, func(tid, i int) { sr.Reduce(1) })
	sr.Sync(h.EP)
	if sr.Read() != 1000 {
		t.Fatalf("concurrent sum = %v, want 1000", sr.Read())
	}
}

func TestTimers(t *testing.T) {
	c := newTestCluster(t, 1)
	h := c.Hosts()[0]
	h.TimeCompute(func() { busyWork(1000) })
	h.TimeComm(func() { busyWork(1000) })
	if h.Timers.Compute <= 0 || h.Timers.Comm() <= 0 {
		t.Fatalf("timers not accumulated: %+v", h.Timers)
	}
	h.ResetTimers()
	if h.Timers.Compute != 0 || h.Timers.Comm() != 0 {
		t.Fatal("ResetTimers did not zero")
	}
}

func busyWork(n int) {
	x := 0
	for i := 0; i < n; i++ {
		x += i * i
	}
	_ = x
}

func TestCommStats(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Run(func(h *Host) { h.Barrier() })
	msgs, _ := c.CommStats()
	if msgs < 2 {
		t.Fatalf("barrier sent %d messages, want >= 2", msgs)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := par.NewBitset(130)
	if b.Size() != 130 {
		t.Fatalf("Size = %d", b.Size())
	}
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Fatal("first Set should report newly set")
	}
	if b.Set(64) {
		t.Fatal("second Set should report already set")
	}
	if !b.Test(0) || !b.Test(64) || !b.Test(129) || b.Test(1) {
		t.Fatal("Test results wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	var got []int
	b.ForEachSet(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("ForEachSet = %v", got)
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear did not clear")
	}
}

func TestBitsetConcurrentSet(t *testing.T) {
	b := par.NewBitset(4096)
	var newly atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < 8; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4096; i++ {
				if b.Set(i) {
					newly.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if newly.Load() != 4096 {
		// Each bit must be "newly set" exactly once across all threads.
		panic("concurrent Set double-counted")
	}
}

// Property: Count equals the number of distinct set indices.
func TestQuickBitsetCount(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := par.NewBitset(1 << 16)
		seen := map[uint16]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			seen[i] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCluster(t *testing.T) {
	g := gen.Grid(6, 6, false, 1)
	c, err := NewCluster(g, Config{NumHosts: 3, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum atomic.Int64
	c.Run(func(h *Host) {
		var cr CountReducer
		cr.Reduce(int64(h.Rank + 1))
		cr.Sync(h.EP)
		sum.Store(cr.Read())
	})
	if sum.Load() != 6 {
		t.Fatalf("TCP cluster reduce = %d, want 6", sum.Load())
	}
}
