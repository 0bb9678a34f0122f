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

// BenchmarkCCSVSocialSHM runs CC-SV on the social-shm workload's shape:
// the social graph on 1 host × 2 threads, one cluster, b.N calls. It is
// the profiling harness for the hook and shortcut bodies where the two
// threads share one host's maps and its work-done flag:
//
//	go test ./internal/algorithms -run '^$' -bench CCSVSocialSHM -cpuprofile cpu.out
func BenchmarkCCSVSocialSHM(b *testing.B) {
	g, c := socialCluster(b, 1, 2)
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { CCSV(h, Config{}, out) })
	}
}

// BenchmarkCCSVChain runs CC-SV on the perf suite's chain workload, a
// 2^17-node path on 1 host × 1 thread, one cluster, b.N calls: the deepest
// parent chains, where the shortcut's local compression does all its
// doubling in one round. It is the profiling harness for compress and the
// request and jump passes:
//
//	go test ./internal/algorithms -run '^$' -bench CCSVChain -cpuprofile cpu.out
func BenchmarkCCSVChain(b *testing.B) {
	g := gen.Chain(1<<17, false, 3)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 1, ThreadsPerHost: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	out := make([]graph.NodeID, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { CCSV(h, Config{}, out) })
	}
}

// socialCluster partitions the social workload's graph — R-MAT(17,16),
// weighted, 131k nodes — under CVC on the given cluster shape.
func socialCluster(b *testing.B, hosts, threads int) (*graph.Graph, *runtime.Cluster) {
	g := gen.RMAT(17, 16, true, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: threads, Policy: partition.CVC})
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
	g, c := socialCluster(b, 2, 1)
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
	g, c := socialCluster(b, 2, 1)
	defer c.Close()
	set := make([]bool, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { MIS(h, Config{}, set) })
	}
}

// BenchmarkCommunity runs LV then LD on the community workload's shape —
// gen.Communities(32,512,16,4), weighted, 16k nodes — on 2 hosts × 1
// thread (both force OEC), b.N calls of each. Every call builds its own
// cluster per level, as the benchmark's jobs do. It is the profiling
// harness for the local-moving and refinement loops:
//
//	go test ./internal/algorithms -run '^$' -bench Community -cpuprofile cpu.out
func BenchmarkCommunity(b *testing.B) {
	g := gen.Communities(32, 512, 16, 4, true, 1)
	rc := runtime.Config{NumHosts: 2, ThreadsPerHost: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, algo := range []func(*graph.Graph, runtime.Config, Config, CDOptions) (CDResult, error){Louvain, Leiden} {
			if _, err := algo(g, rc, Config{}, CDOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
