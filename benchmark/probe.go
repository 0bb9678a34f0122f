package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark observes the program only from outside: wall clocks around
// its own calls, process CPU time from getrusage, and the Go runtime's
// allocation and heap counters.

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes returns the cumulative bytes the Go heap has allocated.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter brackets one timed call: wall, CPU and heap allocation.
type meter struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	return meter{start: time.Now(), cpu: cpuTime(), alloc: allocBytes()}
}

// reading is what a meter measured between start and stop.
type reading struct {
	start, end time.Time
	wall, cpu  float64 // seconds
	allocMB    float64
}

func (m meter) stop() reading {
	end := time.Now()
	return reading{
		start:   m.start,
		end:     end,
		wall:    end.Sub(m.start).Seconds(),
		cpu:     (cpuTime() - m.cpu).Seconds(),
		allocMB: float64(allocBytes()-m.alloc) / (1 << 20),
	}
}

// heapSampler tracks the peak of /gc/heap/live:bytes (the heap marked live
// by the latest GC), sampled every 2 ms. The sampled live-heap peak repeats
// far better between runs than VmHWM does.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapSampleEvery = 2 * time.Millisecond

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler starts the sampling goroutine; close stops it and waits
// for it to exit.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset restarts the peak at the current live heap.
func (h *heapSampler) reset() { h.peak.Store(liveHeap()) }

// peakMB returns the peak since the last reset, including a final sample.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
