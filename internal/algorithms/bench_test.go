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

// socialCluster partitions the social workload's shape — R-MAT(17,16),
// weighted, 131k nodes — on 2 hosts × 1 thread under CVC.
func socialCluster(b *testing.B) (*graph.Graph, *runtime.Cluster) {
	g := gen.RMAT(17, 16, true, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
	if err != nil {
		b.Fatal(err)
	}
	return g, c
}

// BenchmarkMSFSocial runs MSF on the social workload's shape, one cluster,
// b.N calls. It is the profiling harness for the candidate-selection body
// and the master-side request/merge loops:
//
//	go test ./internal/algorithms -run '^$' -bench MSFSocial -cpuprofile cpu.out
func BenchmarkMSFSocial(b *testing.B) {
	g, c := socialCluster(b)
	defer c.Close()
	comp := make([]graph.NodeID, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { MSF(h, Config{}, comp) })
	}
}

// BenchmarkMISSocial runs MIS on the social workload's shape, one cluster,
// b.N calls: the profiling harness for the accumulate, decide and knockout
// bodies.
//
//	go test ./internal/algorithms -run '^$' -bench MISSocial -cpuprofile cpu.out
func BenchmarkMISSocial(b *testing.B) {
	g, c := socialCluster(b)
	defer c.Close()
	set := make([]bool, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { MIS(h, Config{}, set) })
	}
}
