package compiler

import (
	"testing"

	"kimbap/internal/gen"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// BenchmarkCompiledCCLPGrid runs compiled CC-LP on the shape of
// internal/algorithms' BenchmarkCCLPGrid (the road workload's): a 256×256
// grid on 2 hosts × 1 thread under CVC, one cluster, b.N calls. Set
// against that harness, it shows whether the compiled program runs within
// the wall-time spread of the hand-written one:
//
//	go test ./internal/compiler -run '^$' -bench CompiledCCLPGrid -cpuprofile cpu.out
func BenchmarkCompiledCCLPGrid(b *testing.B) {
	g := gen.Grid(256, 256, false, 1)
	plan, err := Compile(CCLPProgram(), Options{Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 2, ThreadsPerHost: 1, Policy: partition.CVC})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(h *runtime.Host) { NewExec(h, plan, ExecConfig{}).Run() })
	}
}
