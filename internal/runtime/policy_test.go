package runtime

import (
	"sync/atomic"
	"testing"

	"kimbap/internal/graph"
)

func TestAdaptiveModeChoice(t *testing.T) {
	h := &Host{}
	// Empty frontier: nothing to drain, BSP (a no-op round) always.
	a := &Adaptive{h: h, localShare: 1, divisor: frontierDenseDivisor}
	if a.NextMode(0) != ModeBSP {
		t.Fatal("empty frontier must choose BSP")
	}
	// Unobserved controller probes async when enough targets are local.
	if a.NextMode(10) != ModeAsync {
		t.Fatal("localShare=1 unobserved: want async probe")
	}
	b := &Adaptive{h: h, localShare: 0.3, divisor: frontierDenseDivisor}
	if b.NextMode(10) != ModeBSP {
		t.Fatal("localShare=0.3 unobserved: want BSP (mirrors dominate)")
	}

	// An observed async round keeps async on at a high local share and
	// falls back at a moderate one.
	c := &Adaptive{h: h, localShare: 0.8, divisor: frontierDenseDivisor}
	c.Observe(RoundTelemetry{Active: 100, FrontierSize: 1 << 20, Mode: ModeAsync, CASApplied: 50})
	if c.NextMode(10) != ModeAsync {
		t.Fatal("observed at localShare=0.8: want async")
	}
	d := &Adaptive{h: h, localShare: 0.5, divisor: frontierDenseDivisor}
	d.Observe(RoundTelemetry{Active: 100, FrontierSize: 1 << 20, Mode: ModeAsync, CASApplied: 50})
	if d.NextMode(10) != ModeBSP {
		t.Fatal("observed at localShare=0.5: want BSP")
	}

	// Heavy CAS contention forces BSP regardless of cascade rate.
	e := &Adaptive{h: h, localShare: 1, divisor: frontierDenseDivisor}
	e.Observe(RoundTelemetry{
		Active: 100, FrontierSize: 1 << 20, Mode: ModeAsync,
		CASApplied: 100, CASRetries: 300,
	})
	if e.NextMode(10) != ModeBSP {
		t.Fatalf("retryEMA=%v: contention must force BSP", e.retryEMA)
	}
}

// A frontier hovering at the dense/sparse boundary (alternating sides every
// round) must trigger the controller to double the host's dense divisor,
// parking the workload in one representation.
func TestAdaptiveDivisorRetune(t *testing.T) {
	h := &Host{}
	h.SetFrontierThresholds(frontierDenseDivisor, 0)
	a := newTestAdaptive(h, 1)
	const size = 16 * 1024
	boundary := size / frontierDenseDivisor
	for i := 0; i < 8; i++ {
		active := boundary + 1 // dense
		if i%2 == 1 {
			active = boundary - 1 // sparse
		}
		a.Observe(RoundTelemetry{Active: active, FrontierSize: size, Mode: ModeBSP})
	}
	if a.Divisor() <= frontierDenseDivisor {
		t.Fatalf("divisor %d not raised after sustained flapping", a.Divisor())
	}
	if div, _ := h.FrontierThresholds(); div != a.Divisor() {
		t.Fatalf("host divisor %d does not match controller %d", div, a.Divisor())
	}

	// A stable frontier (always dense) must leave the divisor alone.
	h2 := &Host{}
	b := newTestAdaptive(h2, 1)
	for i := 0; i < 8; i++ {
		b.Observe(RoundTelemetry{Active: boundary * 2, FrontierSize: size, Mode: ModeBSP})
	}
	if b.Divisor() != frontierDenseDivisor {
		t.Fatalf("stable frontier moved divisor to %d", b.Divisor())
	}
}

// newTestAdaptive builds a controller without a partitioned host.
func newTestAdaptive(h *Host, localShare float64) *Adaptive {
	div, _ := h.FrontierThresholds()
	return &Adaptive{h: h, localShare: localShare, divisor: div}
}

// SetFrontierThresholds: positive sets, zero leaves, negative restores
// the package default.
func TestFrontierThresholdsFromConfig(t *testing.T) {
	h := &Host{}
	if div, cut := h.FrontierThresholds(); div != frontierDenseDivisor || cut != frontierSerialCutoff {
		t.Fatalf("bare host thresholds (%d,%d), want defaults", div, cut)
	}
	h.SetFrontierThresholds(32, 0)
	if div, cut := h.FrontierThresholds(); div != 32 || cut != frontierSerialCutoff {
		t.Fatalf("after (32,0): (%d,%d)", div, cut)
	}
	h.SetFrontierThresholds(0, 9)
	if div, cut := h.FrontierThresholds(); div != 32 || cut != 9 {
		t.Fatalf("after (0,9): (%d,%d)", div, cut)
	}
	h.SetFrontierThresholds(-1, -1)
	if div, cut := h.FrontierThresholds(); div != frontierDenseDivisor || cut != frontierSerialCutoff {
		t.Fatalf("after restore: (%d,%d)", div, cut)
	}
}

// Satellite: force each of ParForActive's three representations with
// extreme thresholds and check the observable signature of each — the
// sparse path materializes the compacted index, the serial path runs
// everything on the calling goroutine as tid 0, and all three visit the
// active set exactly once.
func TestParForActiveForcedRepresentations(t *testing.T) {
	const n, active = 4096, 64
	run := func(h *Host) (*Frontier, []int32) {
		f := NewFrontier(n)
		for i := 0; i < active; i++ {
			f.Activate(i * (n / active))
		}
		f.Advance()
		visits := make([]int32, n)
		h.ParForActive(f, func(tid int, node graph.NodeID) {
			atomic.AddInt32(&visits[node], int32(1+tid<<8))
		})
		return f, visits
	}
	check := func(t *testing.T, f *Frontier, visits []int32, wantTid0 bool) {
		t.Helper()
		for i, v := range visits {
			count := v & 0xff
			want := int32(0)
			if f.IsActive(i) {
				want = 1
			}
			if count != want {
				t.Fatalf("node %d visited %d times, want %d", i, count, want)
			}
			if wantTid0 && v>>8 != 0 {
				t.Fatalf("node %d ran on tid %d, want serial tid 0", i, v>>8)
			}
		}
	}

	t.Run("serial", func(t *testing.T) {
		h := testHost(4)
		defer h.pool.close()
		h.SetFrontierThresholds(0, n) // cutoff >= any count: always inline
		f, visits := run(h)
		check(t, f, visits, true)
		if f.idxValid {
			t.Fatal("serial path built the sparse index")
		}
	})
	t.Run("dense", func(t *testing.T) {
		h := testHost(4)
		defer h.pool.close()
		h.SetFrontierThresholds(n, 1) // count*divisor >= size even for tiny frontiers
		f, visits := run(h)
		check(t, f, visits, false)
		if f.idxValid {
			t.Fatal("dense path built the sparse index")
		}
	})
	t.Run("sparse", func(t *testing.T) {
		h := testHost(4)
		defer h.pool.close()
		h.SetFrontierThresholds(1, 1) // count*1 < size: compacted index list
		f, visits := run(h)
		check(t, f, visits, false)
		if !f.idxValid {
			t.Fatal("sparse path did not build the compacted index")
		}
	})
}
