//go:build wallgates

package bench

import (
	gort "runtime"
	"testing"

	"kimbap/internal/gen"
)

// Wall-clock gates. Each compares two live wall times measured in this
// process, so a busy or small host can push a ratio past its limit with no
// code change; they stay out of `go test ./...` and run on demand:
//
//	go test -tags wallgates -run 'Gate$' -v ./internal/bench
//
// (`make bench` and the CI bench-smoke job do exactly that). The
// deterministic counter half of the streaming gate — the build's
// allocation bound — lives in perf_regression_test.go and runs in every
// `go test ./...`.

// TestIngestBuildPartitionGate holds the parallel ingestion pipeline to at
// most 60% of the retained serial references' wall time on the full-scale
// friendster preset: build (symmetrize + dedup + CSR) plus an 8-host CVC
// partition. Both sides are measured live in this process — wall-time
// baselines recorded on another machine would gate nothing — with two reps
// each, fastest kept. The margin is wide (the pipeline measures ~40% of
// serial on one core, and parallelism only widens it).
func TestIngestBuildPartitionGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 2}
	const p = gen.Friendster
	serial := cfg.ingestBuildPerf(p, true).WallNsPerOp +
		cfg.ingestPartitionPerf(p, 8, true).WallNsPerOp
	par := cfg.ingestBuildPerf(p, false).WallNsPerOp +
		cfg.ingestPartitionPerf(p, 8, false).WallNsPerOp
	if serial == 0 {
		t.Fatal("serial ingest measured zero wall time; gate workload is broken")
	}
	if limit := serial * 0.6; par > limit {
		t.Errorf("parallel build+partition = %.1fms, above 60%% of serial %.1fms (limit %.1fms)",
			par/1e6, serial/1e6, limit/1e6)
	}
}

// TestStreamIngestWallGate holds the out-of-core build to its wall
// contract on the full-scale friendster analogue: streaming the KMB2 file
// must finish within 120% of the materialize-then-build twin on the same
// file. Both pay the same block decode and the same final adjacency sort,
// and the twin's extra full-edge-list materialization pays for the
// streaming path's second scan. A warmup pair outside the timed window
// fills the buffer pools and a forced GC clears neighboring tests'
// allocation debt; reps are interleaved (stream, twin, stream, ...) with
// best-of-4 kept per side so a transient stall cannot land on one side
// alone. TestStreamIngestGate holds the memory half.
func TestStreamIngestWallGate(t *testing.T) {
	cfg := Config{Scale: Full, Threads: 4, Reps: 1}
	fx, cleanup := cfg.ioFixtureFor(gen.Friendster)
	defer cleanup()
	fx.streamKMB2(cfg.Threads) // warm the block and count pools
	fx.loadKMB2(cfg.Threads)
	gort.GC()

	var stream, inmem PerfRecord
	for rep := 0; rep < 4; rep++ {
		s := cfg.timeOp(PerfRecord{Name: "gate_stream"}, func() {},
			func() { fx.streamKMB2(cfg.Threads) })
		if rep == 0 || s.WallNsPerOp < stream.WallNsPerOp {
			stream = s
		}
		m := cfg.timeOp(PerfRecord{Name: "gate_inmem"}, func() {},
			func() { fx.loadKMB2(cfg.Threads) })
		if rep == 0 || m.WallNsPerOp < inmem.WallNsPerOp {
			inmem = m
		}
	}
	if inmem.WallNsPerOp == 0 {
		t.Fatal("streaming gate measured nothing; gate workload is broken")
	}
	t.Logf("stream=%.1fms inmem=%.1fms", stream.WallNsPerOp/1e6, inmem.WallNsPerOp/1e6)
	if limit := inmem.WallNsPerOp * 1.2; stream.WallNsPerOp > limit {
		t.Errorf("streaming build = %.1fms, above 120%% of the in-memory build %.1fms (limit %.1fms)",
			stream.WallNsPerOp/1e6, inmem.WallNsPerOp/1e6, limit/1e6)
	}
}
