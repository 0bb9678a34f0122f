//go:build wallgates

package bench

import (
	"testing"
	"time"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
)

// Wall-clock gates. Each compares two live wall times measured in this
// process, so a busy or small host can push a ratio past its limit with no
// code change; they stay out of `go test ./...` and run on demand:
//
//	go test -tags wallgates -run 'Gate$' -v ./internal/bench
//
// (`make bench` and the CI bench-smoke job do exactly that).

// edgeColumns extracts a graph's edge list as builder columns, the raw
// material both build paths consume. The measured op symmetrizes first, so
// starting from an already-symmetric CSR means duplicate removal sees
// every edge twice — real duplicate-elimination work, like a raw
// generator stream.
func edgeColumns(g *graph.Graph) (srcs, dsts []graph.NodeID, ws []float64) {
	m := int(g.NumEdges())
	srcs = make([]graph.NodeID, 0, m)
	dsts = make([]graph.NodeID, 0, m)
	if g.Weighted() {
		ws = make([]float64, 0, m)
	}
	for n := 0; n < g.NumNodes(); n++ {
		v := graph.NodeID(n)
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			srcs = append(srcs, v)
			dsts = append(dsts, g.Dst(e))
			if ws != nil {
				ws = append(ws, g.Weight(e))
			}
		}
	}
	return srcs, dsts, ws
}

// buildWall times the generators' build (symmetric closure, duplicate
// removal, CSR) on g's edge list, best of reps: graph.BuildSymmetric at
// workers, or the serial reference chain.
func buildWall(g *graph.Graph, workers, reps int, serial bool) time.Duration {
	srcs, dsts, ws := edgeColumns(g)
	var b *graph.Builder
	wall, _ := timeOp(reps,
		func() {
			if !serial {
				return
			}
			// The serial chain mutates its builder; each rep gets a fresh one.
			b = graph.NewBuilder(g.NumNodes())
			for i := range srcs {
				if ws != nil {
					b.AddWeightedEdge(srcs[i], dsts[i], ws[i])
				} else {
					b.AddEdge(srcs[i], dsts[i])
				}
			}
		},
		func() {
			if serial {
				b.SymmetrizeSerial()
				b.DedupSerial()
				b.BuildSerial()
			} else {
				graph.BuildSymmetric(g.NumNodes(), srcs, dsts, ws, workers)
			}
		})
	return wall
}

// partitionWall times partitioning g across hosts under CVC, best of reps:
// the parallel partitioner at workers, or the retained serial reference.
func partitionWall(g *graph.Graph, hosts, workers, reps int, serial bool) time.Duration {
	wall, _ := timeOp(reps, func() {}, func() {
		if serial {
			partition.PartitionSerial(g, hosts, partition.CVC)
		} else {
			partition.PartitionWorkers(g, hosts, partition.CVC, workers)
		}
	})
	return wall
}

// TestIngestBuildPartitionGate holds the parallel ingestion pipeline to at
// most 60% of the retained serial references' wall time on the full-scale
// friendster preset: build (symmetrize + dedup + CSR) plus an 8-host CVC
// partition. Both sides are measured live in this process — wall-time
// baselines recorded on another machine would gate nothing — with two reps
// each, fastest kept. The margin is wide (the pipeline measures ~40% of
// serial on one core, and parallelism only widens it).
func TestIngestBuildPartitionGate(t *testing.T) {
	const workers, reps = 4, 2
	g := Config{Scale: Full}.graphFor(gen.Friendster)
	serial := buildWall(g, 1, reps, true) + partitionWall(g, 8, 1, reps, true)
	par := buildWall(g, workers, reps, false) + partitionWall(g, 8, workers, reps, false)
	t.Logf("serial=%v parallel=%v (%.2fx)", serial, par, float64(par)/float64(serial))
	if serial == 0 {
		t.Fatal("serial ingest measured zero wall time; gate workload is broken")
	}
	if limit := serial * 6 / 10; par > limit {
		t.Errorf("parallel build+partition = %v, above 60%% of serial %v (limit %v)", par, serial, limit)
	}
}
