package bench

import (
	gort "runtime"
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
)

// Counter gates: every check here compares deterministic counts (bytes,
// rounds, allocated bytes), never a wall time, so they run in every
// `go test ./...`. The wall-clock gates live in perf_wall_test.go behind
// the wallgates build tag.

// Reduce-sync bytes per round of the perf workload (full-scale R-MAT,
// 8 hosts x 4 threads, Reps=1), pinned exactly: with one rep the measured
// window covers a fixed iteration range, and every reduce section's size
// is a function of its entry set alone (base-relative keys, positional
// dense masks), never of insertion order.
const (
	pinnedReduceSyncFullBytes  = 31339
	pinnedReduceSyncSGRCFBytes = 42168
)

// TestReduceSyncCommBytesNoRegression pins the reduce frame's bytes on the
// Full and SGR+CF maps. An encoding change that moves either count must
// update the pin deliberately. The committed BENCH_kimbap.json value comes
// from `make bench` (Reps=3, best wall rep kept, and rep windows cover
// different iteration ranges), so the Full record is additionally held to
// at most 0.5% over it.
func TestReduceSyncCommBytesNoRegression(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 1}
	full := cfg.syncPerf("reduce_sync_full", npm.Full, 8, false)
	sgrcf := cfg.syncPerf("reduce_sync_sgrcf", npm.SGRCF, 8, false)
	if full.CommBytes != pinnedReduceSyncFullBytes {
		t.Errorf("reduce_sync_full comm_bytes = %d/op, pinned %d", full.CommBytes, pinnedReduceSyncFullBytes)
	}
	if sgrcf.CommBytes != pinnedReduceSyncSGRCFBytes {
		t.Errorf("reduce_sync_sgrcf comm_bytes = %d/op, pinned %d", sgrcf.CommBytes, pinnedReduceSyncSGRCFBytes)
	}
	committed := int64(-1)
	if f, err := readPerfFile("../../BENCH_kimbap.json"); err == nil {
		for _, r := range f.Records {
			if r.Name == "reduce_sync_full" && r.Hosts == 8 && r.Threads == 4 {
				committed = r.CommBytes
			}
		}
	}
	if committed < 0 {
		t.Log("no committed BENCH_kimbap.json record; only the pins were checked")
	} else if slack := committed + committed/200; full.CommBytes > slack {
		t.Errorf("comm_bytes = %d/op, regressed past the committed %d (+0.5%% = %d)",
			full.CommBytes, committed, slack)
	}
}

// TestStreamIngestGate holds the out-of-core build to its memory contract
// on the full-scale friendster analogue: the streaming two-scan build's
// allocation (TotalAlloc delta, an upper bound on peak heap growth) must
// stay within 125% of the final CSR footprint — the pooled cursor matrix
// and the per-worker block buffers (allocated per build) are the only
// working set on top of the output arrays. A warmup build fills the
// cursor-matrix pool first.
// TestStreamIngestWallGate holds the wall-time half.
func TestStreamIngestGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 1}
	fx, cleanup := cfg.ioFixtureFor(gen.Friendster)
	defer cleanup()
	fx.streamKMB2(cfg.Threads) // warm the count pool
	gort.GC()
	stream := cfg.timeOp(PerfRecord{Name: "gate_stream"}, func() {},
		func() { fx.streamKMB2(cfg.Threads) })
	csr := csrBytes(fx.g)
	if stream.PeakAllocBytes == 0 {
		t.Fatal("streaming gate measured nothing; gate workload is broken")
	}
	t.Logf("csr=%dKB stream alloc=%dKB (%.2fx)",
		csr/1024, stream.PeakAllocBytes/1024, float64(stream.PeakAllocBytes)/float64(csr))
	if limit := csr + csr/4; stream.PeakAllocBytes > limit {
		t.Errorf("streaming build allocated %d bytes, above 125%% of the %d-byte CSR (limit %d)",
			stream.PeakAllocBytes, csr, limit)
	}
}

// TestPartitionAllocGate holds the partitioner to writing each host's
// local CSR once: partitioning the full-scale friendster R-MAT (2 hosts,
// CVC, 2 workers) may allocate (TotalAlloc delta) at most 125% of the
// bytes its result holds — every host's local CSR offsets, dsts and
// weights plus its global→local table. Global-ID edge columns or a
// second CSR build on top of the output would each break the bound.
func TestPartitionAllocGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 2, Reps: 1}
	g := cfg.graphFor(gen.Friendster)
	var p *partition.Partitioned
	part := func() { p = partition.PartitionWorkers(g, 2, partition.CVC, cfg.Threads) }
	part() // warm the worker pool
	gort.GC()
	rec := cfg.timeOp(PerfRecord{Name: "gate_partition"}, func() {}, part)
	var held int64
	for _, hp := range p.Hosts {
		held += csrBytes(hp.Local) + hp.TranslationFootprint()
	}
	if rec.PeakAllocBytes == 0 || held == 0 {
		t.Fatal("partition gate measured nothing; gate workload is broken")
	}
	t.Logf("held=%dKB partition alloc=%dKB (%.2fx)",
		held/1024, rec.PeakAllocBytes/1024, float64(rec.PeakAllocBytes)/float64(held))
	if limit := held + held/4; rec.PeakAllocBytes > limit {
		t.Errorf("partitioning allocated %d bytes, above 125%% of the %d bytes its result holds (limit %d)",
			rec.PeakAllocBytes, held, limit)
	}
}
