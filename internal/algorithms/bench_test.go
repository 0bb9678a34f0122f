package algorithms

import (
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// BenchmarkCCLPGrid runs CC-LP on the road workload's shape: a 256×256
// grid on 2 hosts × 1 thread under CVC, one cluster, b.N calls. It is the
// profiling harness for the label rounds' push body and dense combine:
//
//	go test ./internal/algorithms -run '^$' -bench CCLPGrid -cpuprofile cpu.out
func BenchmarkCCLPGrid(b *testing.B) {
	g := gen.Grid(256, 256, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { CCLP(h, Config{}, out) })
	}
}
